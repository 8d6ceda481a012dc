#include "support/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace memoria {
namespace json {

namespace {

const std::vector<Value> kEmptyItems;
const std::vector<Member> kEmptyMembers;

/** Append one Unicode code point as UTF-8. */
void
appendUtf8(std::string &out, uint32_t cp)
{
    if (cp < 0x80) {
        out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
        out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
        out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
        out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
        out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
}

class Parser
{
  public:
    Parser(const std::string &text, const ParseOptions &opts)
        : text_(text), opts_(opts)
    {
    }

    Result<Value>
    run()
    {
        if (opts_.maxBytes && text_.size() > opts_.maxBytes)
            return failLimit("input exceeds " +
                             std::to_string(opts_.maxBytes) + " bytes");
        skipWs();
        Result<Value> v = parseValue(0);
        if (!v.ok())
            return v;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after value");
        return v;
    }

  private:
    Result<Value>
    fail(const std::string &why)
    {
        return Result<Value>::err(Diag::error(
            "json.parse",
            why + " at offset " + std::to_string(pos_)));
    }

    /** A resource-cap rejection, distinguishable from bad syntax so
     *  protocol layers can answer `protocol.too-large`. */
    Result<Value>
    failLimit(const std::string &why)
    {
        return Result<Value>::err(Diag::error(
            "json.limit",
            why + " at offset " + std::to_string(pos_)));
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!atEnd()) {
            char c = peek();
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool
    consume(const char *lit)
    {
        size_t n = std::char_traits<char>::length(lit);
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    Result<Value>
    parseValue(int depth)
    {
        if (depth > opts_.maxDepth)
            return failLimit("nesting deeper than " +
                             std::to_string(opts_.maxDepth));
        if (opts_.maxNodes && ++nodes_ > opts_.maxNodes)
            return failLimit("more than " +
                             std::to_string(opts_.maxNodes) +
                             " values");
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
          case 'n':
            if (consume("null"))
                return Result<Value>(Value::null());
            return fail("bad literal");
          case 't':
            if (consume("true"))
                return Result<Value>(Value::boolean(true));
            return fail("bad literal");
          case 'f':
            if (consume("false"))
                return Result<Value>(Value::boolean(false));
            return fail("bad literal");
          case '"': {
            std::string s;
            if (Result<void> r = parseString(s); !r.ok())
                return Result<Value>::err(r.diag());
            return Result<Value>(Value::string(std::move(s)));
          }
          case '[':
            return parseArray(depth);
          case '{':
            return parseObject(depth);
          default:
            return parseNumber();
        }
    }

    Result<void>
    parseString(std::string &out)
    {
        auto bad = [&](const std::string &why) {
            return Result<void>::err(Diag::error(
                "json.parse",
                why + " at offset " + std::to_string(pos_)));
        };
        ++pos_;  // opening quote
        while (true) {
            if (atEnd())
                return bad("unterminated string");
            unsigned char c = static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return Result<void>();
            }
            if (c < 0x20)
                return bad("raw control character in string");
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_;  // backslash
            if (atEnd())
                return bad("unterminated escape");
            char e = text_[pos_++];
            switch (e) {
              case '"': out.push_back('"'); break;
              case '\\': out.push_back('\\'); break;
              case '/': out.push_back('/'); break;
              case 'b': out.push_back('\b'); break;
              case 'f': out.push_back('\f'); break;
              case 'n': out.push_back('\n'); break;
              case 'r': out.push_back('\r'); break;
              case 't': out.push_back('\t'); break;
              case 'u': {
                uint32_t cp;
                if (!readHex4(cp))
                    return bad("bad \\u escape");
                // Surrogate pair: a high surrogate must be followed
                // by \uDC00..\uDFFF; combine into one code point.
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    if (pos_ + 1 < text_.size() &&
                        text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
                        pos_ += 2;
                        uint32_t lo;
                        if (!readHex4(lo) || lo < 0xDC00 || lo > 0xDFFF)
                            return bad("bad low surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) +
                             (lo - 0xDC00);
                    } else {
                        return bad("unpaired high surrogate");
                    }
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return bad("unpaired low surrogate");
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                return bad("unknown escape");
            }
        }
    }

    bool
    readHex4(uint32_t &out)
    {
        if (pos_ + 4 > text_.size())
            return false;
        out = 0;
        for (int i = 0; i < 4; ++i) {
            char c = text_[pos_++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<uint32_t>(c - 'A' + 10);
            else
                return false;
        }
        return true;
    }

    Result<Value>
    parseNumber()
    {
        size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        while (!atEnd() && (isdigit(static_cast<unsigned char>(peek())) ||
                            peek() == '.' || peek() == 'e' ||
                            peek() == 'E' || peek() == '+' ||
                            peek() == '-'))
            ++pos_;
        if (pos_ == start)
            return fail("unexpected character");
        std::string tok = text_.substr(start, pos_ - start);
        char *end = nullptr;
        double v = std::strtod(tok.c_str(), &end);
        if (end != tok.c_str() + tok.size() || !std::isfinite(v)) {
            pos_ = start;
            return fail("bad number '" + tok + "'");
        }
        return Result<Value>(Value::number(v));
    }

    Result<Value>
    parseArray(int depth)
    {
        ++pos_;  // '['
        Value arr = Value::array();
        skipWs();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return Result<Value>(std::move(arr));
        }
        while (true) {
            skipWs();
            Result<Value> item = parseValue(depth + 1);
            if (!item.ok())
                return item;
            arr.push(std::move(item.value()));
            skipWs();
            if (atEnd())
                return fail("unterminated array");
            char c = text_[pos_++];
            if (c == ']')
                return Result<Value>(std::move(arr));
            if (c != ',') {
                --pos_;
                return fail("expected ',' or ']'");
            }
        }
    }

    Result<Value>
    parseObject(int depth)
    {
        ++pos_;  // '{'
        Value obj = Value::object();
        skipWs();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return Result<Value>(std::move(obj));
        }
        while (true) {
            skipWs();
            if (atEnd() || peek() != '"')
                return fail("expected object key");
            std::string key;
            if (Result<void> r = parseString(key); !r.ok())
                return Result<Value>::err(r.diag());
            skipWs();
            if (atEnd() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            skipWs();
            Result<Value> val = parseValue(depth + 1);
            if (!val.ok())
                return val;
            obj.set(std::move(key), std::move(val.value()));
            skipWs();
            if (atEnd())
                return fail("unterminated object");
            char c = text_[pos_++];
            if (c == '}')
                return Result<Value>(std::move(obj));
            if (c != ',') {
                --pos_;
                return fail("expected ',' or '}'");
            }
        }
    }

    const std::string &text_;
    ParseOptions opts_;
    size_t pos_ = 0;
    size_t nodes_ = 0;
};

/** Shortest round-trippable double rendering, JSON-valid. */
std::string
renderNumber(double v)
{
    if (v == static_cast<double>(static_cast<int64_t>(v)) &&
        std::fabs(v) < 1e15)
        return std::to_string(static_cast<int64_t>(v));
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

Value
Value::boolean(bool b)
{
    Value v;
    v.kind_ = Kind::Bool;
    v.bool_ = b;
    return v;
}

Value
Value::number(double n)
{
    Value v;
    v.kind_ = Kind::Number;
    v.num_ = n;
    return v;
}

Value
Value::number(int64_t n)
{
    return number(static_cast<double>(n));
}

Value
Value::string(std::string s)
{
    Value v;
    v.kind_ = Kind::String;
    v.str_ = std::move(s);
    return v;
}

Value
Value::array(std::vector<Value> items)
{
    Value v;
    v.kind_ = Kind::Array;
    v.items_ = std::move(items);
    return v;
}

Value
Value::object(std::vector<Member> members)
{
    Value v;
    v.kind_ = Kind::Object;
    v.members_ = std::move(members);
    return v;
}

bool
Value::asBool(bool fallback) const
{
    return kind_ == Kind::Bool ? bool_ : fallback;
}

double
Value::asNumber(double fallback) const
{
    return kind_ == Kind::Number ? num_ : fallback;
}

int64_t
Value::asInt(int64_t fallback) const
{
    return kind_ == Kind::Number ? static_cast<int64_t>(num_) : fallback;
}

std::string
Value::asString(const std::string &fallback) const
{
    return kind_ == Kind::String ? str_ : fallback;
}

const std::vector<Value> &
Value::items() const
{
    return kind_ == Kind::Array ? items_ : kEmptyItems;
}

const std::vector<Member> &
Value::members() const
{
    return kind_ == Kind::Object ? members_ : kEmptyMembers;
}

const Value *
Value::get(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const Member &m : members_)
        if (m.first == key)
            return &m.second;
    return nullptr;
}

std::string
Value::getString(const std::string &key, const std::string &fallback) const
{
    const Value *v = get(key);
    return v ? v->asString(fallback) : fallback;
}

int64_t
Value::getInt(const std::string &key, int64_t fallback) const
{
    const Value *v = get(key);
    return v ? v->asInt(fallback) : fallback;
}

double
Value::getNumber(const std::string &key, double fallback) const
{
    const Value *v = get(key);
    return v ? v->asNumber(fallback) : fallback;
}

bool
Value::getBool(const std::string &key, bool fallback) const
{
    const Value *v = get(key);
    return v ? v->asBool(fallback) : fallback;
}

void
Value::push(Value v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ == Kind::Array)
        items_.push_back(std::move(v));
}

void
Value::set(std::string key, Value v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        return;
    // Replace in place: duplicate keys would be invisible to get()
    // (first match wins) yet still serialize — the serve supervisor
    // rewrites response ids and relies on set() being a true upsert.
    for (auto &[k, existing] : members_) {
        if (k == key) {
            existing = std::move(v);
            return;
        }
    }
    members_.emplace_back(std::move(key), std::move(v));
}

std::string
Value::dump() const
{
    switch (kind_) {
      case Kind::Null:
        return "null";
      case Kind::Bool:
        return bool_ ? "true" : "false";
      case Kind::Number:
        return renderNumber(num_);
      case Kind::String:
        return quote(str_);
      case Kind::Array: {
        std::string out = "[";
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ",";
            out += items_[i].dump();
        }
        out += "]";
        return out;
      }
      case Kind::Object: {
        std::string out = "{";
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ",";
            out += quote(members_[i].first) + ":" +
                   members_[i].second.dump();
        }
        out += "}";
        return out;
      }
    }
    return "null";
}

Result<Value>
parse(const std::string &text, const ParseOptions &opts)
{
    return Parser(text, opts).run();
}

std::string
quote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(static_cast<char>(c));
            }
        }
    }
    out.push_back('"');
    return out;
}

} // namespace json
} // namespace memoria
