#pragma once

/**
 * @file
 * Minimal JSON value type with a recursive-descent parser and a writer.
 *
 * Used for trace import/export in an OpenTelemetry-like shape and for
 * serializing synthetic-benchmark configurations and trained models.
 * Supports the JSON data model (null, bool, number, string, array,
 * object); numbers are stored as double.
 */

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace sleuth::util {

/** A JSON document node. */
class Json
{
  public:
    /** Kind discriminator. */
    enum class Type { Null, Bool, Number, String, Array, Object };

    using Array = std::vector<Json>;
    using Object = std::map<std::string, Json>;

    /**
     * Deepest array/object nesting parse() accepts. Deeper input is a
     * parse error, which bounds the parser's recursion (and the
     * recursive destruction of the value) on untrusted documents.
     */
    static constexpr size_t kMaxDepth = 256;

    /** Construct null. */
    Json() : type_(Type::Null) {}
    /** Construct a boolean. */
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    /** Construct a number. */
    Json(double n) : type_(Type::Number), num_(n) {}
    /** Construct a number from an integer. */
    Json(int n) : type_(Type::Number), num_(n) {}
    /** Construct a number from a 64-bit integer. */
    Json(int64_t n) : type_(Type::Number), num_(static_cast<double>(n)) {}
    /** Construct a number from an unsigned size. */
    Json(size_t n) : type_(Type::Number), num_(static_cast<double>(n)) {}
    /** Construct a string. */
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
    /** Construct a string from a literal. */
    Json(const char *s) : type_(Type::String), str_(s) {}
    /** Construct an array. */
    Json(Array a) : type_(Type::Array), arr_(std::move(a)) {}
    /** Construct an object. */
    Json(Object o) : type_(Type::Object), obj_(std::move(o)) {}

    /** Make an empty array. */
    static Json array() { return Json(Array{}); }
    /** Make an empty object. */
    static Json object() { return Json(Object{}); }

    /** Kind of this node. */
    Type type() const { return type_; }
    /** True when the node is null. */
    bool isNull() const { return type_ == Type::Null; }

    /** Boolean payload (asserts on kind mismatch). */
    bool asBool() const;
    /** Numeric payload (asserts on kind mismatch). */
    double asNumber() const;
    /** Numeric payload truncated to int64. */
    int64_t asInt() const;
    /** String payload (asserts on kind mismatch). */
    const std::string &asString() const;
    /** Array payload (asserts on kind mismatch). */
    const Array &asArray() const;
    /** Mutable array payload. */
    Array &asArray();
    /** Object payload (asserts on kind mismatch). */
    const Object &asObject() const;
    /** Mutable object payload. */
    Object &asObject();

    /** Object member access (asserts when missing). */
    const Json &at(const std::string &key) const;
    /** True when this is an object containing the key. */
    bool has(const std::string &key) const;
    /** Insert or replace an object member. */
    void set(const std::string &key, Json value);
    /** Append to an array. */
    void push(Json value);

    /** Serialize compactly; indent > 0 pretty-prints. */
    std::string dump(int indent = 0) const;

    /**
     * Parse a JSON document.
     *
     * @param text full document text
     * @param error receives a description when parsing fails
     * @return the parsed value, or null with non-empty *error on failure
     *         (including nesting deeper than kMaxDepth)
     */
    static Json parse(const std::string &text, std::string *error = nullptr);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    Array arr_;
    Object obj_;
};

} // namespace sleuth::util
