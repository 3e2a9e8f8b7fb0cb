#!/usr/bin/env python3
"""Repo-specific determinism linter.

Every engine in this repo promises bit-identical output across
thread counts, engines and SIMD backends. That contract dies by a
thousand cuts -- one wall-clock read, one unordered-container walk,
one -ffast-math flag -- so this linter bans the cut classes
statically, in the CI lint job, before any of them can flake a
determinism smoke:

  banned-call        rand()/srand(), std::random_device, time(),
                     clock() and std::chrono::*_clock::now() in
                     src/ (simulation code draws only from the
                     counter RNG; wall time belongs in bench/).
  unordered-container std::unordered_{map,set} in src/sim and
                     src/mac: iteration order is hash-seed and
                     allocation dependent, which is exactly how a
                     per-user loop silently reorders output.
  omp-pragma         #pragma omp in src/: OpenMP scheduling is
                     nondeterministic by default and invisible to
                     the LockstepTeam determinism story.
  raw-thread         std::thread, std::jthread or
                     hardware_concurrency in src/ outside
                     src/common/lockstep.hh: every parallel loop
                     runs on a LockstepTeam, and its workerCount()
                     is the one place that sizes a team.
  kernel-libm        calls in src/common/kernels_impl.hh to libm
                     functions outside the whitelist documented in
                     that file's `wilis-lint: kernel-libm-whitelist:`
                     directive (the one-call-per-lane bit-exactness
                     policy).
  fast-math-flag     -ffast-math / -funsafe-math-optimizations /
                     -Ofast / -mfma / -ffp-contract=fast in CMake
                     files: contraction and reassociation break the
                     scalar<->SIMD bit-exactness the kernel tests
                     pin.
  kernel-caller      a kernels::Ops member (src/common/kernels.hh)
                     that nothing in src/ outside
                     src/common/kernels* calls: the kernel layer
                     holds no prototypes, only kernels the simulator
                     runs.
  undocumented-key   a key declared in the spec key lists
                     (src/sim/scenario.cc: the v("<key>", ...) rows
                     and the hand-written k...Prefix/k...Key
                     constants, kChannelAliases and kLinkShorthands)
                     but absent from docs/SCENARIOS.md -- the
                     reference must cover the whole accepted surface.
                     Channel and decoder keys are checked by the test
                     ScenarioDocs.ScenariosDocCoversExactlyTheAcceptedKeys
                     against each implementation's key list, in both
                     directions.

  line-length        a line of C++ source in src/, tests/, bench/ or
                     examples/ longer than the ColumnLimit of the
                     repo's .clang-format (tabs at 8 columns), so the
                     limit holds on hosts without the pinned
                     clang-format.

Suppression: a line carrying `wilis-lint: allow(<rule>)` (in a
comment, with a justification) disables that rule for that line;
the justification requirement is policy (docs/ARCHITECTURE.md,
"Static determinism guarantees"), reviewed, not machine-checked.

Usage:
    wilis_lint.py [--root DIR]
    wilis_lint.py --self-test

Exit status: 0 when the tree is clean, 1 on findings (or self-test
failure). Comments and string literals are stripped before rules
run, so prose mentioning rand() or `time(` never trips the gate.
"""

import argparse
import os
import re
import sys

# --------------------------------------------------------------- util

CODE_SUFFIXES = (".hh", ".cc", ".h", ".cpp")

# libm names worth scanning for in kernel bodies. Integer helpers
# (abs, min, max) are deliberately absent: they are exact.
LIBM_FUNCTIONS = frozenset("""
    sin cos tan asin acos atan atan2 sinh cosh tanh asinh acosh atanh
    exp exp2 expm1 log log2 log10 log1p pow sqrt cbrt hypot
    erf erfc tgamma lgamma fmod remainder fma
    floor ceil round trunc nearbyint rint lround llround
    fabs fdim copysign frexp ldexp scalbn
""".split())


def strip_code(text):
    """Blank out comments and string/char literals, preserving
    newlines (and therefore line numbers) -- except that the
    `wilis-lint:` directives themselves survive, since they live in
    comments on purpose."""
    out = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                # Keep lint directives visible to the rules.
                m = re.match(r"//.*?(wilis-lint:[^\n]*)", text[i:])
                if m:
                    out.append(" " + m.group(1))
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                m = re.match(r"/\*.*?(wilis-lint:[^\n]*)", text[i:],
                             re.S)
                if m:
                    out.append(" " + m.group(1))
                i += 2
                continue
            if c == '"':
                state = "str"
                i += 1
                continue
            if c == "'":
                state = "chr"
                i += 1
                continue
            out.append(c)
            i += 1
            continue
        if state == "line_comment":
            if c == "\n":
                out.append("\n")
                state = "code"
            i += 1
            continue
        if state == "block_comment":
            if c == "\n":
                out.append("\n")
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
                continue
            i += 1
            continue
        # str / chr
        if c == "\\":
            i += 2
            continue
        if c == "\n":  # unterminated literal; stay line-accurate
            out.append("\n")
            state = "code"
            i += 1
            continue
        if (state == "str" and c == '"') or \
           (state == "chr" and c == "'"):
            state = "code"
        i += 1
    return "".join(out)


def allowed_lines(raw_text, rule):
    """Line numbers (1-based) carrying a suppression for `rule`."""
    allowed = set()
    for lineno, line in enumerate(raw_text.splitlines(), 1):
        if re.search(r"wilis-lint:\s*allow\(%s\)" % re.escape(rule),
                     line):
            allowed.add(lineno)
    return allowed


class Finding:
    def __init__(self, path, lineno, rule, message):
        self.path = path
        self.lineno = lineno
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.lineno,
                                   self.rule, self.message)


def scan_lines(path, raw_text, rule, patterns):
    """Findings for regex `patterns` ({regex: message}) over the
    stripped text of one file, honoring per-line suppressions."""
    stripped = strip_code(raw_text)
    allowed = allowed_lines(raw_text, rule)
    findings = []
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if lineno in allowed:
            continue
        for pattern, message in patterns.items():
            if re.search(pattern, line):
                findings.append(Finding(path, lineno, rule, message))
    return findings


# -------------------------------------------------------------- rules

BANNED_CALL_PATTERNS = {
    r"\bs?rand\s*\(": "rand()/srand(): use common/random.hh "
                      "counter streams",
    r"\brandom_device\b": "std::random_device is a nondeterministic "
                          "entropy source",
    r"(?<![\w:.])time\s*\(": "time(): wall clock in simulation "
                             "code (bench/ owns timing)",
    r"(?<![\w:.])clock\s*\(": "clock(): wall clock in simulation "
                              "code (bench/ owns timing)",
    # The type name, not just ::now(): `using clock = steady_clock;`
    # would otherwise launder the call site past a ::now pattern.
    r"\b(system|steady|high_resolution)_clock\b":
        "std::chrono clock type: wall time in simulation code "
        "(bench/ owns timing)",
}

UNORDERED_PATTERNS = {
    r"\bunordered_(map|set)\b":
        "std::unordered_{map,set} in deterministic-output code: "
        "iteration order is hash-seed dependent; use std::map / "
        "std::set / sorted vectors",
}

OMP_PATTERNS = {
    r"#\s*pragma\s+omp\b":
        "#pragma omp: OpenMP scheduling bypasses the deterministic "
        "LockstepTeam sharding",
}

RAW_THREAD_PATTERNS = {
    r"\bstd::j?thread\b":
        "raw thread outside common/lockstep.hh: run the loop on a "
        "LockstepTeam (run() or forEach())",
    r"\bhardware_concurrency\b":
        "hardware_concurrency outside common/lockstep.hh: size the "
        "team with LockstepTeam::workerCount()",
}

FAST_MATH_PATTERNS = {
    r"-ffast-math\b|-funsafe-math-optimizations\b|-Ofast\b":
        "fast-math flag: reassociation breaks scalar<->SIMD "
        "bit-exactness",
    r"-mfma\b|-ffp-contract=fast\b":
        "FMA contraction flag: contracted mul+add drifts from the "
        "scalar reference",
}


def rule_banned_calls(root):
    findings = []
    src = os.path.join(root, "src")
    for path in iter_files(src, CODE_SUFFIXES):
        raw = read_file(path)
        findings += scan_lines(rel(path, root), raw, "banned-call",
                               BANNED_CALL_PATTERNS)
    return findings


def rule_unordered(root):
    findings = []
    for sub in ("src/sim", "src/mac"):
        for path in iter_files(os.path.join(root, sub),
                               CODE_SUFFIXES):
            raw = read_file(path)
            findings += scan_lines(rel(path, root), raw,
                                   "unordered-container",
                                   UNORDERED_PATTERNS)
    return findings


def rule_omp(root):
    findings = []
    src = os.path.join(root, "src")
    for path in iter_files(src, CODE_SUFFIXES):
        raw = read_file(path)
        findings += scan_lines(rel(path, root), raw, "omp-pragma",
                               OMP_PATTERNS)
    return findings


def rule_raw_thread(root, owner="src/common/lockstep.hh"):
    findings = []
    src = os.path.join(root, "src")
    for path in iter_files(src, CODE_SUFFIXES):
        relpath = rel(path, root)
        if relpath == os.path.normpath(owner):
            continue
        findings += scan_lines(relpath, read_file(path), "raw-thread",
                               RAW_THREAD_PATTERNS)
    return findings


WHITELIST_DIRECTIVE = re.compile(
    r"wilis-lint:\s*kernel-libm-whitelist:\s*([a-z0-9_ \t]+)")


def parse_libm_whitelist(raw_text, path):
    m = WHITELIST_DIRECTIVE.search(raw_text)
    if not m:
        return None, [Finding(path, 1, "kernel-libm",
                              "missing `wilis-lint: "
                              "kernel-libm-whitelist:` directive")]
    return frozenset(m.group(1).split()), []


# An identifier followed by '(' with its immediate prefix: member
# calls (`.`/`->`) are never libm; a `::`-qualified name is libm
# only when the qualifier is std.
CALL_RE = re.compile(
    r"(?P<prefix>(?:[\w>\]]\s*(?:\.|->)\s*)|(?:\w+\s*::\s*))?"
    r"\b(?P<name>[a-z][a-z0-9_]*)\s*\(")


def libm_calls(stripped_line):
    """Yield libm function names called on this line."""
    for m in CALL_RE.finditer(stripped_line):
        name = m.group("name")
        if name not in LIBM_FUNCTIONS:
            continue
        prefix = (m.group("prefix") or "").strip()
        if prefix.endswith(".") or prefix.endswith("->"):
            continue  # member call, not libm
        if prefix.endswith("::") and not prefix.startswith("std"):
            continue  # SomeType::floor(...), not libm
        yield name


def rule_kernel_libm(root, impl_path="src/common/kernels_impl.hh"):
    path = os.path.join(root, impl_path)
    if not os.path.exists(path):
        return [Finding(impl_path, 1, "kernel-libm",
                        "kernel policy file missing")]
    raw = read_file(path)
    whitelist, findings = parse_libm_whitelist(raw, impl_path)
    if whitelist is None:
        return findings
    stripped = strip_code(raw)
    allowed = allowed_lines(raw, "kernel-libm")
    for lineno, line in enumerate(stripped.splitlines(), 1):
        if lineno in allowed:
            continue
        for name in libm_calls(line):
            if name in whitelist:
                continue
            findings.append(Finding(
                impl_path, lineno, "kernel-libm",
                "libm call '%s' outside the kernel whitelist (%s)"
                % (name, " ".join(sorted(whitelist)))))
    return findings


def rule_fast_math(root):
    findings = []
    cmake_files = [os.path.join(root, "CMakeLists.txt")]
    for base, _dirs, names in os.walk(os.path.join(root, "cmake")):
        for name in names:
            if name.endswith(".cmake") or name == "CMakeLists.txt":
                cmake_files.append(os.path.join(base, name))
    for path in cmake_files:
        if not os.path.exists(path):
            continue
        raw = read_file(path)
        allowed = allowed_lines(raw, "fast-math-flag")
        for lineno, line in enumerate(raw.splitlines(), 1):
            if lineno in allowed or line.lstrip().startswith("#"):
                continue
            for pattern, message in FAST_MATH_PATTERNS.items():
                if re.search(pattern, line):
                    findings.append(Finding(rel(path, root), lineno,
                                            "fast-math-flag",
                                            message))
    return findings


# A function-pointer member declaration, `void (*name)(...`.
OPS_MEMBER_RE = re.compile(r"\(\s*\*\s*(\w+)\s*\)\s*\(")


def ops_members(stripped_header):
    """(name, line) of every function-pointer member of struct Ops."""
    m = re.search(r"\bstruct\s+Ops\s*\{(.*?)\n\};", stripped_header,
                  re.S)
    if not m:
        return []
    first_line = stripped_header.count("\n", 0, m.start(1)) + 1
    members = []
    for lineno, line in enumerate(m.group(1).splitlines(), first_line):
        members += [(name, lineno) for name in OPS_MEMBER_RE.findall(line)]
    return members


def rule_kernel_callers(root, header="src/common/kernels.hh"):
    path = os.path.join(root, header)
    if not os.path.exists(path):
        return [Finding(header, 1, "kernel-caller",
                        "kernel registry header missing")]
    raw = read_file(path)
    members = ops_members(strip_code(raw))
    if not members:
        return [Finding(header, 1, "kernel-caller",
                        "no kernels::Ops members parsed (declaration "
                        "format changed?)")]
    callers = []
    for src in iter_files(os.path.join(root, "src"), CODE_SUFFIXES):
        if rel(src, root).startswith(os.path.join("src", "common",
                                                  "kernels")):
            continue
        callers.append(strip_code(read_file(src)))
    code = "\n".join(callers)
    allowed = allowed_lines(raw, "kernel-caller")
    findings = []
    for name, lineno in members:
        if lineno in allowed:
            continue
        if not re.search(r"(?:\.|->)\s*%s\s*\(" % re.escape(name),
                         code):
            findings.append(Finding(
                header, lineno, "kernel-caller",
                "kernels::Ops member '%s' has no caller in src/ "
                "outside src/common/kernels*" % name))
    return findings


KEY_ROW_RE = re.compile(r'\bv\("([^"]+)"')
HAND_KEY_RE = re.compile(r'const char k\w+(?:Prefix|Key)\[\] = "([^"]+)";')
HAND_LIST_RE = re.compile(
    r"k(?:ChannelAliases|LinkShorthands)\[\]\s*=\s*\{(.*?)\};", re.S)


def spec_keys(scenario_cc_text):
    """Every key the spec key lists declare: the v("<key>", ...) rows
    plus the hand-written key constants (prefix families keep their
    trailing dot)."""
    keys = set(KEY_ROW_RE.findall(scenario_cc_text))
    keys.update(HAND_KEY_RE.findall(scenario_cc_text))
    for m in HAND_LIST_RE.finditer(scenario_cc_text):
        keys.update(re.findall(r'"([^"]+)"', m.group(1)))
    return keys


def rule_undocumented_keys(root,
                           scenario_path="src/sim/scenario.cc",
                           doc_path="docs/SCENARIOS.md"):
    cc = os.path.join(root, scenario_path)
    doc = os.path.join(root, doc_path)
    findings = []
    if not os.path.exists(cc):
        return [Finding(scenario_path, 1, "undocumented-key",
                        "spec key tables missing")]
    if not os.path.exists(doc):
        return [Finding(doc_path, 1, "undocumented-key",
                        "scenario reference missing")]
    declared = [(scenario_path, key)
                for key in spec_keys(read_file(cc))]
    if not declared:
        return [Finding(scenario_path, 1, "undocumented-key",
                        "no keys parsed from the spec key lists "
                        "(declaration format changed?)")]
    documented = set(re.findall(r"`([A-Za-z0-9_.]+)`",
                                read_file(doc)))
    for path, key in sorted(declared):
        if key not in documented:
            findings.append(Finding(
                path, 1, "undocumented-key",
                "key '%s' is not documented in %s" % (key, doc_path)))
    return findings


# The trees the CI format check covers.
FORMATTED_DIRS = ("src", "tests", "bench", "examples")

COLUMN_LIMIT_RE = re.compile(r"^ColumnLimit:\s*(\d+)\s*$", re.M)


def column_limit(root):
    """ColumnLimit of the repo's .clang-format, or None."""
    path = os.path.join(root, ".clang-format")
    if not os.path.exists(path):
        return None
    m = COLUMN_LIMIT_RE.search(read_file(path))
    return int(m.group(1)) if m else None


def rule_line_length(root):
    limit = column_limit(root)
    if limit is None:
        return [Finding(".clang-format", 1, "line-length",
                        "no `ColumnLimit:` to check lines against")]
    findings = []
    for sub in FORMATTED_DIRS:
        for path in iter_files(os.path.join(root, sub),
                               CODE_SUFFIXES):
            raw = read_file(path)
            allowed = allowed_lines(raw, "line-length")
            for lineno, line in enumerate(raw.splitlines(), 1):
                width = len(line.expandtabs(8))
                if width > limit and lineno not in allowed:
                    findings.append(Finding(
                        rel(path, root), lineno, "line-length",
                        "%d columns, over the .clang-format "
                        "ColumnLimit of %d" % (width, limit)))
    return findings


# ------------------------------------------------------------ driver

def iter_files(base, suffixes):
    for root_dir, _dirs, names in os.walk(base):
        for name in sorted(names):
            if name.endswith(suffixes):
                yield os.path.join(root_dir, name)


def read_file(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def rel(path, root):
    return os.path.relpath(path, root)


def run_all(root):
    findings = []
    findings += rule_banned_calls(root)
    findings += rule_unordered(root)
    findings += rule_omp(root)
    findings += rule_raw_thread(root)
    findings += rule_kernel_libm(root)
    findings += rule_fast_math(root)
    findings += rule_kernel_callers(root)
    findings += rule_undocumented_keys(root)
    findings += rule_line_length(root)
    return findings


# --------------------------------------------------------- self-test

def self_test():
    """Fixture snippets for every rule class: each seeded violation
    must be caught, each clean twin must pass. Runs in CI next to
    check_bench_regression.py --self-test."""
    import shutil
    import tempfile

    checks = []

    def check(name, cond):
        checks.append((name, bool(cond)))

    def one_file_findings(rule_fn, relpath, content, root_dir):
        full = os.path.join(root_dir, relpath)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as f:
            f.write(content)
        return rule_fn(root_dir)

    tmp = tempfile.mkdtemp(prefix="wilis_lint_selftest.")
    try:
        # ---- banned-call ------------------------------------------
        def banned(content):
            d = tempfile.mkdtemp(dir=tmp)
            return one_file_findings(rule_banned_calls,
                                     "src/x.cc", content, d)

        check("rand() is caught",
              banned("int x = rand();"))
        check("srand() is caught",
              banned("srand(42);"))
        check("random_device is caught",
              banned("std::random_device rd;"))
        check("time(nullptr) is caught",
              banned("auto t = time(nullptr);"))
        check("clock() is caught",
              banned("long c = clock();"))
        check("steady_clock::now is caught",
              banned("auto t = std::chrono::steady_clock::now();"))
        check("high_resolution_clock::now is caught",
              banned("auto t = high_resolution_clock::now();"))
        check("clock alias declaration is caught",
              banned("using clock = std::chrono::steady_clock;"))
        check("comment mention passes",
              not banned("// rand() and time() are banned here\n"))
        check("string mention passes",
              not banned('const char *s = "uses time() inside";'))
        check("identifier suffix passes",
              not banned("runtime(x); o.time(); c.clock();"))
        check("counter RNG passes",
              not banned("stream.doubleAt(counter);"))
        check("suppressed line passes",
              not banned("auto t = time(nullptr); "
                         "// wilis-lint: allow(banned-call) "
                         "bench helper\n"))
        check("suppression is rule-specific",
              banned("auto t = time(nullptr); "
                     "// wilis-lint: allow(omp-pragma)\n"))

        # ---- unordered-container ----------------------------------
        def unordered(relpath, content):
            d = tempfile.mkdtemp(dir=tmp)
            return one_file_findings(rule_unordered, relpath,
                                     content, d)

        check("unordered_map in src/sim is caught",
              unordered("src/sim/x.hh",
                        "std::unordered_map<int, int> m;"))
        check("unordered_set in src/mac is caught",
              unordered("src/mac/x.cc",
                        "std::unordered_set<int> s;"))
        check("unordered_map in src/phy passes",
              not unordered("src/phy/x.cc",
                            "std::unordered_map<int, int> m;"))
        check("std::map in src/sim passes",
              not unordered("src/sim/x.cc", "std::map<int, int> m;"))

        # ---- omp-pragma -------------------------------------------
        def omp(content):
            d = tempfile.mkdtemp(dir=tmp)
            return one_file_findings(rule_omp, "src/y.cc", content, d)

        check("#pragma omp is caught",
              omp("#pragma omp parallel for\nfor (...) {}"))
        check("#pragma once passes", not omp("#pragma once\n"))

        # ---- raw-thread -------------------------------------------
        def raw_thread(relpath, content):
            d = tempfile.mkdtemp(dir=tmp)
            return one_file_findings(rule_raw_thread, relpath,
                                     content, d)

        check("std::thread in src/sim is caught",
              raw_thread("src/sim/x.cc",
                         "std::thread t([] {});\nt.join();"))
        check("std::jthread is caught",
              raw_thread("src/mac/x.cc", "std::jthread t(f);"))
        check("hardware_concurrency is caught",
              raw_thread("src/sim/x.cc",
                         "int n = std::thread::hardware_concurrency();"))
        check("std::thread in common/lockstep.hh passes",
              not raw_thread("src/common/lockstep.hh",
                             "std::vector<std::thread> extras;\n"
                             "unsigned hw = "
                             "std::thread::hardware_concurrency();"))
        check("std::this_thread::yield passes",
              not raw_thread("src/sim/x.cc",
                             "std::this_thread::yield();"))

        # ---- kernel-libm ------------------------------------------
        directive = ("// wilis-lint: kernel-libm-whitelist: "
                     "exp log sqrt\n")

        def libm(content):
            d = tempfile.mkdtemp(dir=tmp)
            return one_file_findings(rule_kernel_libm,
                                     "src/common/kernels_impl.hh",
                                     content, d)

        check("non-whitelisted std::sin is caught",
              libm(directive + "double y = std::sin(x);"))
        check("non-whitelisted bare pow is caught",
              libm(directive + "double y = pow(x, 2.0);"))
        check("whitelisted std::log passes",
              not libm(directive + "double y = std::log(x);"))
        check("member .floor() passes",
              not libm(directive + "double y = q.floor(x);"))
        check("VecI32::abs-style static call passes",
              not libm(directive + "VecF64::sqrt(v);" ))
        check("missing directive is itself a finding",
              libm("double y = std::log(x);"))

        # ---- fast-math-flag ---------------------------------------
        def fm(content):
            d = tempfile.mkdtemp(dir=tmp)
            return one_file_findings(rule_fast_math,
                                     "CMakeLists.txt", content, d)

        check("-ffast-math is caught",
              fm("add_compile_options(-ffast-math)\n"))
        check("-Ofast is caught", fm("set(FLAGS -Ofast)\n"))
        check("-mfma is caught",
              fm('set_source_files_properties(x.cc PROPERTIES '
                 'COMPILE_OPTIONS "-mfma")\n'))
        check("-ffp-contract=fast is caught",
              fm("add_compile_options(-ffp-contract=fast)\n"))
        check("-mavx2 passes",
              not fm('add_compile_options(-mavx2)\n'))
        check("cmake comment passes",
              not fm("# never pass -ffast-math here\n"))

        # ---- kernel-caller ----------------------------------------
        ops_hh = ("struct Ops {\n"
                  "    Backend backend;\n"
                  "    void (*acsForward)(const TrellisView &tv,\n"
                  "                       const std::int32_t *pm);\n"
                  "    void (*zzOrphan)(float *y, size_t n);\n"
                  "};\n")

        def callers(files):
            d = tempfile.mkdtemp(dir=tmp)
            files = dict(files)
            files["src/common/kernels.hh"] = ops_hh
            for relpath, content in files.items():
                full = os.path.join(d, relpath)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w") as f:
                    f.write(content)
            return rule_kernel_callers(d)

        caller_cc = "void f() { kernels::ops().acsForward(tv, pm); }\n"
        orphan = callers({"src/decode/x.cc": caller_cc})
        check("Ops member with no caller is caught",
              [(f.lineno, "zzOrphan" in f.message) for f in orphan]
              == [(5, True)])
        check("a call inside src/common/kernels* does not count",
              len(callers({
                  "src/decode/x.cc": caller_cc,
                  "src/common/kernels_impl.hh":
                      "void g() { t->zzOrphan(y, n); }\n"})) == 1)
        check("a comment mentioning the member does not count",
              len(callers({
                  "src/decode/x.cc": caller_cc +
                  "// k.zzOrphan(y, n) someday\n"})) == 1)
        check("every Ops member called passes",
              not callers({
                  "src/decode/x.cc": caller_cc,
                  "src/sim/y.cc": "void g() { k->zzOrphan(y, n); }\n"}))

        # ---- undocumented-key -------------------------------------
        cc_text = ('    v("rate", s.rate);\n'
                   'const char kLinkPrefix[] = "link.";\n'
                   'const char *const kChannelAliases[] = {"snr_db"};\n'
                   '    v("users", s.numUsers, atLeast(1));\n'
                   '    v("zz_internal", s.x);\n')

        def keys(doc_text):
            d = tempfile.mkdtemp(dir=tmp)
            for sub in ("src/sim", "docs"):
                os.makedirs(os.path.join(d, sub))
            with open(os.path.join(d, "src/sim/scenario.cc"),
                      "w") as f:
                f.write(cc_text)
            with open(os.path.join(d, "docs/SCENARIOS.md"),
                      "w") as f:
                f.write(doc_text)
            return rule_undocumented_keys(d)

        check("undocumented key is caught",
              any("zz_internal" in f.message for f in keys(
                  "| `rate` | `snr_db` | `users` | `link.` |\n")))
        check("undocumented hand-written key is caught",
              any("link." in f.message for f in keys(
                  "| `rate` | `snr_db` | `users` | "
                  "`zz_internal` |\n")))
        check("fully documented tables pass",
              not keys("| `rate` | `snr_db` | `users` | "
                       "`zz_internal` | `link.` |\n"))
        check("parse of the key list format works",
              len(spec_keys(cc_text)) == 5)

        # ---- line-length ------------------------------------------
        def length(files, fmt="ColumnLimit: 20\n"):
            d = tempfile.mkdtemp(dir=tmp)
            files = dict(files)
            if fmt is not None:
                files[".clang-format"] = "Language: Cpp\n" + fmt
            for relpath, content in files.items():
                full = os.path.join(d, relpath)
                os.makedirs(os.path.dirname(full), exist_ok=True)
                with open(full, "w", encoding="utf-8") as f:
                    f.write(content)
            return rule_line_length(d)

        over = length({"src/x.cc": "int a;\n" + "x" * 21 + "\n"})
        check("a line over ColumnLimit is caught",
              [(f.path, f.lineno) for f in over] ==
              [(os.path.join("src", "x.cc"), 2)])
        check("a line at ColumnLimit passes",
              not length({"tests/x.cc": "y" * 20 + "\n"}))
        check("bench/ and examples/ are checked",
              len(length({"bench/b.cc": "z" * 30 + "\n",
                          "examples/e.cpp": "z" * 30 + "\n"})) == 2)
        check("the limit is read from .clang-format",
              not length({"src/x.cc": "x" * 30 + "\n"},
                         fmt="ColumnLimit: 30\n"))
        check("a tab counts to the next multiple of 8",
              length({"src/x.cc": "\t\t\tint a;\n"}))
        check("multibyte characters count once",
              not length({"src/x.cc": "// " + "\u2014" * 17 + "\n"}))
        check("files outside the formatted trees pass",
              not length({"tools/x.cc": "x" * 30 + "\n"}))
        check("suppressed line passes",
              not length({"src/x.cc": "x" * 10 + " // wilis-lint: "
                          "allow(line-length) url\n"}))
        check("missing ColumnLimit is itself a finding",
              length({"src/x.cc": "int a;\n"}, fmt=""))

        # ---- the tree itself is clean -----------------------------
        repo_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__)))
        tree = run_all(repo_root)
        for f in tree:
            print("  tree finding: %s" % f)
        check("the repo tree is clean", not tree)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print("  %-52s %s" % (name, "ok" if ok else "FAIL"))
    print("self-test: %d checks, %d failed" % (len(checks),
                                               len(failed)))
    return 0 if not failed else 1


def main():
    parser = argparse.ArgumentParser(
        description="WiLIS determinism linter")
    parser.add_argument("--root", default=None,
                        help="repo root (default: the parent of "
                             "this script's directory)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite and exit")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = run_all(root)
    for f in findings:
        print("wilis-lint: %s" % f)
    if findings:
        print("wilis-lint: %d finding(s)" % len(findings),
              file=sys.stderr)
        sys.exit(1)
    print("wilis-lint: clean (%s)" % root)


if __name__ == "__main__":
    main()
