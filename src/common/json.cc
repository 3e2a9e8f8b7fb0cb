#include "common/json.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"

namespace wilis {
namespace json {

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

// ------------------------------------------------------- JsonWriter

void
JsonWriter::newlineIndent()
{
    out += '\n';
    out.append(2 * stack.size(), ' ');
}

void
JsonWriter::beforeValue()
{
    if (stack.empty()) {
        wilis_assert(!rootDone, "JsonWriter: two root values");
        return;
    }
    auto &top = stack.back();
    if (top.first == 'o') {
        wilis_assert(keyPending,
                     "JsonWriter: object value without a key()");
        keyPending = false;
        return;
    }
    if (top.second++ > 0)
        out += ',';
    newlineIndent();
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    wilis_assert(!stack.empty() && stack.back().first == 'o',
                 "JsonWriter: key() outside an object");
    wilis_assert(!keyPending, "JsonWriter: two key() calls in a row");
    if (stack.back().second++ > 0)
        out += ',';
    newlineIndent();
    out += '"';
    out += escape(name);
    out += "\": ";
    keyPending = true;
    return *this;
}

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out += '{';
    stack.emplace_back('o', 0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    wilis_assert(!stack.empty() && stack.back().first == 'o' &&
                     !keyPending,
                 "JsonWriter: unbalanced endObject()");
    const bool empty = stack.back().second == 0;
    stack.pop_back();
    if (!empty)
        newlineIndent();
    out += '}';
    if (stack.empty())
        rootDone = true;
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out += '[';
    stack.emplace_back('a', 0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    wilis_assert(!stack.empty() && stack.back().first == 'a',
                 "JsonWriter: unbalanced endArray()");
    const bool empty = stack.back().second == 0;
    stack.pop_back();
    if (!empty)
        newlineIndent();
    out += ']';
    if (stack.empty())
        rootDone = true;
    return *this;
}

JsonWriter &
JsonWriter::valueRaw(const std::string &token)
{
    beforeValue();
    out += token;
    if (stack.empty())
        rootDone = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    return valueRaw("\"" + escape(v) + "\"");
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    return valueRaw(
        strprintf("%llu", static_cast<unsigned long long>(v)));
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    return valueRaw(strprintf("%lld", static_cast<long long>(v)));
}

JsonWriter &
JsonWriter::value(int v)
{
    return valueRaw(strprintf("%d", v));
}

JsonWriter &
JsonWriter::valueBool(bool v)
{
    return valueRaw(v ? "true" : "false");
}

JsonWriter &
JsonWriter::valueDouble(double v, const char *fmt)
{
    // wilis-lint note: strprintf's format attribute wants a literal;
    // the two callers pass compile-time constants.
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return valueRaw(buf);
}

const std::string &
JsonWriter::str() const
{
    wilis_assert(stack.empty() && rootDone,
                 "JsonWriter: str() on an unbalanced document");
    return out;
}

// ------------------------------------------------------- JsonValue

/** Strict recursive-descent parser over a complete document. */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string origin)
        : src(text), where(std::move(origin))
    {}

    JsonValue
    document()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos != src.size())
            fail("trailing bytes after the JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what) const
    {
        wilis_fatal("%s: malformed JSON at byte %zu: %s",
                    where.c_str(), pos, what.c_str());
    }

    void
    skipWs()
    {
        while (pos < src.size() &&
               (src[pos] == ' ' || src[pos] == '\n' ||
                src[pos] == '\t' || src[pos] == '\r'))
            ++pos;
    }

    char
    peek()
    {
        skipWs();
        if (pos >= src.size())
            fail("unexpected end of input");
        return src[pos];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(strprintf("expected '%c', found '%c'", c,
                           src[pos]));
        ++pos;
    }

    bool
    consumeLiteral(const char *lit)
    {
        const size_t n = std::string(lit).size();
        if (src.compare(pos, n, lit) != 0)
            return false;
        pos += n;
        return true;
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos >= src.size())
                fail("unterminated string");
            char c = src[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= src.size())
                fail("unterminated escape");
            char e = src[pos++];
            switch (e) {
              case '"':
              case '\\':
              case '/':
                out += e;
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos + 4 > src.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = src[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |=
                            static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |=
                            static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                if (code > 0x7F)
                    fail("non-ASCII \\u escape (unsupported)");
                out += static_cast<char>(code);
                break;
              }
              default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    parseValue()
    {
        char c = peek();
        JsonValue v;
        if (c == '{') {
            ++pos;
            v.kind_ = JsonValue::Kind::Object;
            if (peek() == '}') {
                ++pos;
                return v;
            }
            while (true) {
                std::string k = (skipWs(), parseString());
                expect(':');
                v.members_.emplace_back(std::move(k),
                                        parseValue());
                char t = peek();
                ++pos;
                if (t == '}')
                    return v;
                if (t != ',')
                    fail("expected ',' or '}' in object");
            }
        }
        if (c == '[') {
            ++pos;
            v.kind_ = JsonValue::Kind::Array;
            if (peek() == ']') {
                ++pos;
                return v;
            }
            while (true) {
                v.items_.push_back(parseValue());
                char t = peek();
                ++pos;
                if (t == ']')
                    return v;
                if (t != ',')
                    fail("expected ',' or ']' in array");
            }
        }
        if (c == '"') {
            v.kind_ = JsonValue::Kind::String;
            v.scalar = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = true;
            return v;
        }
        if (consumeLiteral("false")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = false;
            return v;
        }
        if (consumeLiteral("null"))
            return v;
        // Number: keep the raw token so re-emission is byte-exact.
        const size_t start = pos;
        if (src[pos] == '-')
            ++pos;
        while (pos < src.size() &&
               (std::isdigit(static_cast<unsigned char>(src[pos])) ||
                src[pos] == '.' || src[pos] == 'e' ||
                src[pos] == 'E' || src[pos] == '+' ||
                src[pos] == '-'))
            ++pos;
        if (pos == start)
            fail("unrecognized value");
        v.kind_ = JsonValue::Kind::Number;
        v.scalar = src.substr(start, pos - start);
        char *end = nullptr;
        errno = 0;
        std::strtod(v.scalar.c_str(), &end);
        if (errno != 0 || end == nullptr || *end != '\0')
            fail(strprintf("malformed number '%s'",
                           v.scalar.c_str()));
        return v;
    }

    const std::string &src;
    std::string where;
    size_t pos = 0;
};

namespace {

/**
 * Fatal unless @p have is @p want: a wrong-typed field in a report
 * read from disk is bad input, not a broken program invariant.
 */
void
expectKind(JsonValue::Kind have, JsonValue::Kind want)
{
    static const char *const kNames[] = {"null",   "bool",  "number",
                                         "string", "array", "object"};
    wilis_fatal_if(have != want, "JSON value is a %s, expected a %s",
                   kNames[static_cast<int>(have)],
                   kNames[static_cast<int>(want)]);
}

} // namespace

JsonValue
JsonValue::parse(const std::string &text, const std::string &origin)
{
    return JsonParser(text, origin).document();
}

bool
JsonValue::asBool() const
{
    expectKind(kind_, Kind::Bool);
    return bool_;
}

const std::string &
JsonValue::raw() const
{
    expectKind(kind_, Kind::Number);
    return scalar;
}

double
JsonValue::asDouble() const
{
    return std::strtod(raw().c_str(), nullptr);
}

std::int64_t
JsonValue::asInt() const
{
    errno = 0;
    char *end = nullptr;
    const long long v = std::strtoll(raw().c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        wilis_fatal("JSON number '%s' is not an int64",
                    raw().c_str());
    return v;
}

std::uint64_t
JsonValue::asU64() const
{
    const std::string &t = raw();
    if (!t.empty() && t[0] == '-')
        wilis_fatal("JSON number '%s' is not a uint64", t.c_str());
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(t.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0')
        wilis_fatal("JSON number '%s' is not a uint64", t.c_str());
    return v;
}

const std::string &
JsonValue::asString() const
{
    expectKind(kind_, Kind::String);
    return scalar;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    expectKind(kind_, Kind::Array);
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    expectKind(kind_, Kind::Object);
    return members_;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members())
        if (m.first == key)
            return &m.second;
    return nullptr;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        wilis_fatal("JSON object has no member '%s'", key.c_str());
    return *v;
}

} // namespace json
} // namespace wilis
