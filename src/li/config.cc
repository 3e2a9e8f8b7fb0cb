#include "li/config.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace wilis {
namespace li {

namespace {

std::string
trim(const std::string &s)
{
    size_t b = 0;
    size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

void
parsePair(Config &cfg, const std::string &pair)
{
    std::string p = trim(pair);
    if (p.empty())
        return;
    size_t eq = p.find('=');
    if (eq == std::string::npos) {
        wilis_fatal("malformed config entry '%s' (expected key=value)",
                    p.c_str());
    }
    cfg.set(trim(p.substr(0, eq)), trim(p.substr(eq + 1)));
}

} // namespace

Config
Config::fromString(const std::string &text)
{
    Config cfg;
    std::string token;
    std::istringstream in(text);
    while (std::getline(in, token, ','))
        parsePair(cfg, token);
    return cfg;
}

Config
Config::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        wilis_fatal("cannot open config file '%s'", path.c_str());
    Config cfg;
    std::string line;
    while (std::getline(in, line)) {
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        if (trim(line).empty())
            continue;
        parsePair(cfg, line);
    }
    return cfg;
}

std::string
Config::toString() const
{
    std::string out;
    for (const auto &e : kv) {
        if (!out.empty())
            out += ',';
        out += e.first;
        out += '=';
        out += e.second;
    }
    return out;
}

void
Config::set(const std::string &key, const std::string &value)
{
    kv[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return kv.count(key) > 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = kv.find(key);
    return it == kv.end() ? def : it->second;
}

long
Config::getInt(const std::string &key, long def) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 0);
    if (end == text || *end != '\0')
        wilis_fatal("config key '%s': '%s' is not an integer",
                    key.c_str(), text);
    if (errno == ERANGE)
        wilis_fatal("config key '%s': %s is outside the integer "
                    "range", key.c_str(), text);
    return v;
}

std::uint64_t
Config::getUint64(const std::string &key, std::uint64_t def) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    errno = 0;
    // strtoull would silently wrap a leading minus sign.
    unsigned long long v =
        it->second.find('-') == std::string::npos
            ? std::strtoull(text, &end, 0)
            : 0;
    if (end == nullptr || end == text || *end != '\0' || errno)
        wilis_fatal("config key '%s': '%s' is not an unsigned "
                    "integer", key.c_str(), text);
    return static_cast<std::uint64_t>(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return def;
    const char *text = it->second.c_str();
    char *end = nullptr;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        wilis_fatal("config key '%s': '%s' is not a number",
                    key.c_str(), text);
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    auto it = kv.find(key);
    if (it == kv.end())
        return def;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    wilis_fatal("config key '%s': '%s' is not a boolean", key.c_str(),
                it->second.c_str());
}

} // namespace li
} // namespace wilis
