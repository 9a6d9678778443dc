#include "sim/json.hh"

#include <cctype>
#include <cstdlib>

namespace dpu::sim::json {

const Value *
Value::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : obj) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string err;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &what)
    {
        err = what + " at offset " + std::to_string(pos);
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    expect(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (text.compare(pos, len, word) != 0)
            return fail("bad literal");
        pos += len;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (!expect('"'))
            return false;
        out.clear();
        while (pos < text.size()) {
            char c = text[pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos >= text.size())
                    break;
                char e = text[pos++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos + 4 > text.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int k = 0; k < 4; ++k) {
                        char h = text[pos++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= unsigned(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= unsigned(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= unsigned(h - 'A' + 10);
                        else
                            return fail("bad \\u escape");
                    }
                    if (code > 0x7f)
                        return fail("non-ASCII \\u escape "
                                    "unsupported");
                    out += char(code);
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
            } else {
                out += c;
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(Value &out)
    {
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        bool integral = true;
        while (pos < text.size()) {
            char c = text[pos];
            if (std::isdigit(static_cast<unsigned char>(c))) {
                ++pos;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                ++pos;
            } else {
                break;
            }
        }
        const std::string tok = text.substr(start, pos - start);
        if (tok.empty() || tok == "-")
            return fail("bad number");
        char *end = nullptr;
        if (integral) {
            errno = 0;
            long long v = std::strtoll(tok.c_str(), &end, 10);
            if (end == tok.c_str() + tok.size() && errno == 0) {
                out.kind = Value::Kind::Int;
                out.i = v;
                out.d = double(v);
                return true;
            }
            // Fall through (e.g. overflow) to double.
        }
        errno = 0;
        double d = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size())
            return fail("bad number");
        out.kind = Value::Kind::Double;
        out.d = d;
        // Truncating a double outside int64's range is undefined;
        // such a number has no integer view.
        const double lim = 9223372036854775808.0; // 2^63
        out.i = d >= -lim && d < lim ? std::int64_t(d) : 0;
        return true;
    }

    bool
    parseValue(Value &out, unsigned depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        char c = text[pos];
        if (c == '{') {
            ++pos;
            out.kind = Value::Kind::Object;
            skipWs();
            if (pos < text.size() && text[pos] == '}') {
                ++pos;
                return true;
            }
            while (true) {
                std::string key;
                skipWs();
                if (!parseString(key))
                    return false;
                if (!expect(':'))
                    return false;
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.obj.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect('}');
            }
        }
        if (c == '[') {
            ++pos;
            out.kind = Value::Kind::Array;
            skipWs();
            if (pos < text.size() && text[pos] == ']') {
                ++pos;
                return true;
            }
            while (true) {
                Value v;
                if (!parseValue(v, depth + 1))
                    return false;
                out.arr.push_back(std::move(v));
                skipWs();
                if (pos < text.size() && text[pos] == ',') {
                    ++pos;
                    continue;
                }
                return expect(']');
            }
        }
        if (c == '"') {
            out.kind = Value::Kind::String;
            return parseString(out.s);
        }
        if (c == 't') {
            out.kind = Value::Kind::Bool;
            out.b = true;
            return literal("true", 4);
        }
        if (c == 'f') {
            out.kind = Value::Kind::Bool;
            out.b = false;
            return literal("false", 5);
        }
        if (c == 'n') {
            out.kind = Value::Kind::Null;
            return literal("null", 4);
        }
        return parseNumber(out);
    }
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string &err)
{
    Parser p(text);
    out = Value{};
    if (!p.parseValue(out, 0)) {
        err = p.err;
        return false;
    }
    p.skipWs();
    if (p.pos != text.size()) {
        err = "trailing garbage at offset " + std::to_string(p.pos);
        return false;
    }
    return true;
}

} // namespace dpu::sim::json
