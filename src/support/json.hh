/**
 * @file
 * Minimal JSON value model, parser, and serializer.
 *
 * The serve protocol (src/serve/protocol.hh) speaks JSON lines and the
 * incident-bundle reader (`memoria reduce`) consumes incident.json, so
 * the toolkit needs to *parse* JSON, not just emit it. This is a small
 * recursive-descent parser with the robustness properties the rest of
 * the codebase expects from input handling:
 *
 *  - hostile input cannot crash it: nesting depth is bounded (so deeply
 *    nested arrays produce a Diag instead of exhausting the stack), and
 *    every error carries the byte offset of the offending character;
 *  - numbers parse via strtod; \uXXXX escapes decode to UTF-8
 *    (surrogate pairs included);
 *  - trailing garbage after the top-level value is an error, so a
 *    truncated or concatenated line is rejected rather than silently
 *    half-read.
 *
 * Values are an immutable-after-parse tagged tree; the accessors are
 * total (they return fallbacks rather than throwing) so protocol code
 * reads optional fields without pre-checking shape.
 */

#ifndef MEMORIA_SUPPORT_JSON_HH
#define MEMORIA_SUPPORT_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/diag.hh"

namespace memoria {
namespace json {

class Value;

/** Object member order follows the source text (stable round trips). */
using Member = std::pair<std::string, Value>;

/** One JSON value. */
class Value
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Value() = default;

    static Value null() { return Value(); }
    static Value boolean(bool b);
    static Value number(double v);
    static Value number(int64_t v);
    static Value string(std::string s);
    static Value array(std::vector<Value> items = {});
    static Value object(std::vector<Member> members = {});

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Total accessors: the fallback is returned on kind mismatch. */
    bool asBool(bool fallback = false) const;
    double asNumber(double fallback = 0.0) const;
    int64_t asInt(int64_t fallback = 0) const;
    std::string asString(const std::string &fallback) const;

    /** Array/object contents (empty on kind mismatch). */
    const std::vector<Value> &items() const;
    const std::vector<Member> &members() const;

    /** Object member by key, or nullptr. */
    const Value *get(const std::string &key) const;

    /** Shorthands over get(): fallback when absent or wrong kind. */
    std::string getString(const std::string &key,
                          const std::string &fallback = "") const;
    int64_t getInt(const std::string &key, int64_t fallback = 0) const;
    double getNumber(const std::string &key, double fallback = 0.0) const;
    bool getBool(const std::string &key, bool fallback = false) const;

    /** Append helpers for building responses. */
    void push(Value v);                       ///< arrays
    void set(std::string key, Value v);       ///< objects (no dedup)

    /** Compact serialization (RFC 8259; keys in insertion order). */
    std::string dump() const;

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Value> items_;
    std::vector<Member> members_;
};

/** Parser limits. */
struct ParseOptions
{
    /** Maximum array/object nesting. */
    int maxDepth = 64;

    /** Maximum input size in bytes (0 = unlimited). */
    size_t maxBytes = 4u << 20;

    /**
     * Maximum number of parsed values (0 = unlimited). A `Value` is
     * much larger than its two-byte source ("[]"), so without this cap
     * a small hostile input amplifies ~60x into parsed-tree memory.
     */
    size_t maxNodes = 1u << 20;
};

/**
 * Parse one complete JSON value from `text`. Errors come back as a
 * Diag with the byte offset in the message and one of two codes:
 * "json.parse" for malformed input, "json.limit" when the input is
 * well-formed but exceeds a ParseOptions resource cap (size, nesting
 * depth, node count) — servers map the latter to `protocol.too-large`.
 */
Result<Value> parse(const std::string &text, const ParseOptions &opts = {});

/** Escape and quote `s` as a JSON string literal. */
std::string quote(const std::string &s);

} // namespace json
} // namespace memoria

#endif // MEMORIA_SUPPORT_JSON_HH
