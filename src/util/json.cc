#include "json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "logging.h"

namespace sleuth::util {

bool
Json::asBool() const
{
    SLEUTH_ASSERT(type_ == Type::Bool, "json: not a bool");
    return bool_;
}

double
Json::asNumber() const
{
    SLEUTH_ASSERT(type_ == Type::Number, "json: not a number");
    return num_;
}

int64_t
Json::asInt() const
{
    return static_cast<int64_t>(std::llround(asNumber()));
}

const std::string &
Json::asString() const
{
    SLEUTH_ASSERT(type_ == Type::String, "json: not a string");
    return str_;
}

const Json::Array &
Json::asArray() const
{
    SLEUTH_ASSERT(type_ == Type::Array, "json: not an array");
    return arr_;
}

Json::Array &
Json::asArray()
{
    SLEUTH_ASSERT(type_ == Type::Array, "json: not an array");
    return arr_;
}

const Json::Object &
Json::asObject() const
{
    SLEUTH_ASSERT(type_ == Type::Object, "json: not an object");
    return obj_;
}

Json::Object &
Json::asObject()
{
    SLEUTH_ASSERT(type_ == Type::Object, "json: not an object");
    return obj_;
}

const Json &
Json::at(const std::string &key) const
{
    const Object &o = asObject();
    auto it = o.find(key);
    SLEUTH_ASSERT(it != o.end(), "json: missing key '", key, "'");
    return it->second;
}

bool
Json::has(const std::string &key) const
{
    return type_ == Type::Object && obj_.count(key) > 0;
}

void
Json::set(const std::string &key, Json value)
{
    SLEUTH_ASSERT(type_ == Type::Object, "json: not an object");
    obj_[key] = std::move(value);
}

void
Json::push(Json value)
{
    SLEUTH_ASSERT(type_ == Type::Array, "json: not an array");
    arr_.push_back(std::move(value));
}

namespace {

void
escapeTo(std::string &out, const std::string &s)
{
    out.push_back('"');
    for (char ch : s) {
        switch (ch) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
                out += buf;
            } else {
                out.push_back(ch);
            }
        }
    }
    out.push_back('"');
}

void
numberTo(std::string &out, double v)
{
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));
        out += buf;
    } else {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        out += buf;
    }
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent > 0) {
            out.push_back('\n');
            out.append(static_cast<size_t>(indent * d), ' ');
        }
    };
    switch (type_) {
      case Type::Null:
        out += "null";
        break;
      case Type::Bool:
        out += bool_ ? "true" : "false";
        break;
      case Type::Number:
        numberTo(out, num_);
        break;
      case Type::String:
        escapeTo(out, str_);
        break;
      case Type::Array:
        out.push_back('[');
        for (size_t i = 0; i < arr_.size(); ++i) {
            if (i)
                out.push_back(',');
            newline(depth + 1);
            arr_[i].dumpTo(out, indent, depth + 1);
        }
        if (!arr_.empty())
            newline(depth);
        out.push_back(']');
        break;
      case Type::Object:
        out.push_back('{');
        {
            size_t i = 0;
            for (const auto &[k, v] : obj_) {
                if (i++)
                    out.push_back(',');
                newline(depth + 1);
                escapeTo(out, k);
                out.push_back(':');
                if (indent > 0)
                    out.push_back(' ');
                v.dumpTo(out, indent, depth + 1);
            }
        }
        if (!obj_.empty())
            newline(depth);
        out.push_back('}');
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    return out;
}

namespace {

/** Recursive-descent JSON parser over a raw character buffer. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : text_(text), error_(error) {}

    Json
    run()
    {
        Json v = value();
        skipWs();
        if (!failed_ && pos_ != text_.size())
            fail("trailing characters");
        return failed_ ? Json() : v;
    }

    bool failed() const { return failed_; }

  private:
    void
    fail(const std::string &why)
    {
        if (!failed_ && error_)
            *error_ = why + " at offset " + std::to_string(pos_);
        failed_ = true;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        size_t n = std::string(word).size();
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    Json
    value()
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return Json();
        }
        char c = text_[pos_];
        if (c == '{' || c == '[') {
            if (depth_ == Json::kMaxDepth) {
                fail("nesting deeper than " +
                     std::to_string(Json::kMaxDepth) + " levels");
                return Json();
            }
            ++depth_;
            Json out = c == '{' ? object() : array();
            --depth_;
            return out;
        }
        if (c == '"')
            return Json(string());
        if (c == 't') {
            if (literal("true"))
                return Json(true);
            fail("bad literal");
            return Json();
        }
        if (c == 'f') {
            if (literal("false"))
                return Json(false);
            fail("bad literal");
            return Json();
        }
        if (c == 'n') {
            if (literal("null"))
                return Json();
            fail("bad literal");
            return Json();
        }
        return number();
    }

    Json
    number()
    {
        size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (start == pos_) {
            fail("expected value");
            return Json();
        }
        char *end = nullptr;
        std::string tok = text_.substr(start, pos_ - start);
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size()) {
            fail("bad number");
            return Json();
        }
        return Json(v);
    }

    /** Consume 4 hex digits into *code; fail()s on malformed input. */
    bool
    hex4(unsigned *code)
    {
        if (pos_ + 4 > text_.size()) {
            fail("bad unicode escape");
            return false;
        }
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            v <<= 4;
            if (h >= '0' && h <= '9')
                v += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                v += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                v += static_cast<unsigned>(h - 'A' + 10);
            else {
                fail("bad unicode escape");
                return false;
            }
        }
        *code = v;
        return true;
    }

    std::string
    string()
    {
        std::string out;
        if (!consume('"')) {
            fail("expected string");
            return out;
        }
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                char e = text_[pos_++];
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'n': out.push_back('\n'); break;
                  case 't': out.push_back('\t'); break;
                  case 'r': out.push_back('\r'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'u': {
                    unsigned code = 0;
                    if (!hex4(&code))
                        return out;
                    // UTF-16 surrogate pairs: a high surrogate must be
                    // followed by an escaped low surrogate; the pair
                    // combines into one supplementary code point
                    // (emitting the halves separately would be invalid
                    // CESU-8, not UTF-8). Lone surrogates of either
                    // kind are parse errors.
                    if (code >= 0xd800 && code <= 0xdbff) {
                        if (pos_ + 2 > text_.size() ||
                            text_[pos_] != '\\' ||
                            text_[pos_ + 1] != 'u') {
                            fail("lone high surrogate");
                            return out;
                        }
                        pos_ += 2;
                        unsigned low = 0;
                        if (!hex4(&low))
                            return out;
                        if (low < 0xdc00 || low > 0xdfff) {
                            fail("bad low surrogate");
                            return out;
                        }
                        code = 0x10000 + ((code - 0xd800) << 10) +
                               (low - 0xdc00);
                    } else if (code >= 0xdc00 && code <= 0xdfff) {
                        fail("lone low surrogate");
                        return out;
                    }
                    // Encode the code point as UTF-8 (1-4 bytes).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(static_cast<char>(0xc0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    } else if (code < 0x10000) {
                        out.push_back(static_cast<char>(0xe0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    } else {
                        out.push_back(static_cast<char>(0xf0 | (code >> 18)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 12) & 0x3f)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    }
                    break;
                  }
                  default:
                    fail("bad escape");
                    return out;
                }
            } else {
                out.push_back(c);
            }
        }
        fail("unterminated string");
        return out;
    }

    Json
    array()
    {
        Json out = Json::array();
        consume('[');
        skipWs();
        if (consume(']'))
            return out;
        while (true) {
            out.push(value());
            if (failed_)
                return Json();
            skipWs();
            if (consume(']'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or ']'");
                return Json();
            }
        }
    }

    Json
    object()
    {
        Json out = Json::object();
        consume('{');
        skipWs();
        if (consume('}'))
            return out;
        while (true) {
            skipWs();
            std::string key = string();
            if (failed_)
                return Json();
            skipWs();
            if (!consume(':')) {
                fail("expected ':'");
                return Json();
            }
            out.set(key, value());
            if (failed_)
                return Json();
            skipWs();
            if (consume('}'))
                return out;
            if (!consume(',')) {
                fail("expected ',' or '}'");
                return Json();
            }
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
    size_t depth_ = 0;
    bool failed_ = false;
};

} // namespace

Json
Json::parse(const std::string &text, std::string *error)
{
    std::string local_error;
    Parser p(text, error ? error : &local_error);
    Json v = p.run();
    if (p.failed())
        return Json();
    if (error)
        error->clear();
    return v;
}

} // namespace sleuth::util
