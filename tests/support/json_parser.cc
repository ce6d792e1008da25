#include "support/json_parser.hh"

#include <cctype>
#include <cstdlib>

namespace flashcache {
namespace obs {

namespace {

class Parser
{
  public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error)
    {
    }

    std::optional<JsonValue>
    parse()
    {
        skipWs();
        JsonValue v;
        if (!parseValue(v))
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    fail(const char* what)
    {
        if (error_ && error_->empty()) {
            *error_ = std::string(what) + " at offset " +
                std::to_string(pos_);
        }
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return false;
        pos_ += word.size();
        return true;
    }

    bool
    parseString(std::string& out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"') {
            fail("expected string");
            return false;
        }
        ++pos_;
        out.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size()) {
                    fail("unterminated escape");
                    return false;
                }
                const char e = text_[pos_++];
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
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                        return false;
                    }
                    unsigned cp = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        cp <<= 4;
                        if (h >= '0' && h <= '9')
                            cp |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            cp |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            cp |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            fail("bad \\u escape");
                            return false;
                        }
                    }
                    // Basic-multilingual-plane only; encode as UTF-8.
                    if (cp < 0x80) {
                        out += static_cast<char>(cp);
                    } else if (cp < 0x800) {
                        out += static_cast<char>(0xC0 | (cp >> 6));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (cp >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((cp >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (cp & 0x3F));
                    }
                    break;
                  }
                  default:
                    fail("unknown escape");
                    return false;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parseValue(JsonValue& v)
    {
        if (++depth_ > kMaxDepth) {
            fail("nesting too deep");
            --depth_;
            return false;
        }
        const bool ok = parseValueInner(v);
        --depth_;
        return ok;
    }

    bool
    parseValueInner(JsonValue& v)
    {
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return false;
        }
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            v.type = JsonValue::Type::Object;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':') {
                    fail("expected ':' in object");
                    return false;
                }
                ++pos_;
                JsonValue member;
                if (!parseValue(member))
                    return false;
                v.object.emplace_back(std::move(key),
                                      std::move(member));
                skipWs();
                if (pos_ >= text_.size()) {
                    fail("unterminated object");
                    return false;
                }
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                fail("expected ',' or '}' in object");
                return false;
            }
        }
        if (c == '[') {
            ++pos_;
            v.type = JsonValue::Type::Array;
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                JsonValue item;
                if (!parseValue(item))
                    return false;
                v.array.push_back(std::move(item));
                skipWs();
                if (pos_ >= text_.size()) {
                    fail("unterminated array");
                    return false;
                }
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                fail("expected ',' or ']' in array");
                return false;
            }
        }
        if (c == '"') {
            v.type = JsonValue::Type::String;
            return parseString(v.str);
        }
        if (literal("true")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return true;
        }
        if (literal("false")) {
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return true;
        }
        if (literal("null")) {
            v.type = JsonValue::Type::Null;
            return true;
        }
        // Number: delegate validation + conversion to strtod over the
        // JSON number grammar's character set.
        const std::size_t start = pos_;
        if (text_[pos_] == '-')
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E' || text_[pos_] == '+' ||
                text_[pos_] == '-')) {
            if (std::isdigit(static_cast<unsigned char>(text_[pos_])))
                digits = true;
            ++pos_;
        }
        if (!digits) {
            pos_ = start;
            fail("unexpected character");
            return false;
        }
        const std::string num(text_.substr(start, pos_ - start));
        char* end = nullptr;
        v.number = std::strtod(num.c_str(), &end);
        if (end != num.c_str() + num.size()) {
            fail("malformed number");
            return false;
        }
        v.type = JsonValue::Type::Number;
        return true;
    }

    static constexpr int kMaxDepth = 64;

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

const JsonValue*
JsonValue::find(std::string_view key) const
{
    if (type != Type::Object)
        return nullptr;
    for (const auto& [k, v] : object) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

std::vector<std::string>
JsonValue::keys() const
{
    std::vector<std::string> out;
    out.reserve(object.size());
    for (const auto& [k, v] : object)
        out.push_back(k);
    return out;
}

std::optional<JsonValue>
parseJson(std::string_view text, std::string* error)
{
    if (error)
        error->clear();
    return Parser(text, error).parse();
}

} // namespace obs
} // namespace flashcache
