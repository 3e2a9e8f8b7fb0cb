# Runs PROG with the space-separated ARGS and passes only when it
# exits 1 with a "fatal:" line on stderr: a user error rejected
# through wilis_fatal, never an abort (134) and never a success.
#   cmake -DPROG=<binary> "-DARGS=<args>" -P expect_fatal.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "(^|\n)fatal:")
  message(FATAL_ERROR
          "expected a fatal exit 1, got ${rc}: ${PROG} ${ARGS}\n${err}")
endif()
