/**
 * @file
 * A minimal JSON document model and recursive-descent parser.
 *
 * Treadmill workload characteristics (request mix, key/value size
 * distributions, target throughput) are described in JSON configuration
 * files, mirroring the paper's "configurable workload" design point.
 * This implementation is self-contained (no third-party dependency) and
 * supports the full JSON grammar except for \u surrogate pairs, which
 * are mapped to U+FFFD.
 */

#ifndef TREADMILL_UTIL_JSON_H_
#define TREADMILL_UTIL_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace treadmill {
namespace json {

class Value;

/** The type tag of a JSON value. (Declared before the container
 *  aliases: gcc's -Wshadow flags enumerators that shadow earlier
 *  namespace-scope names, even for a scoped enum.) */
enum class Type { Null, Boolean, Number, String, Array, Object };

/** Ordered key/value storage for JSON objects. */
using Object = std::map<std::string, Value>;
/** Element storage for JSON arrays. */
using Array = std::vector<Value>;

/**
 * A JSON value: null, boolean, number, string, array, or object.
 *
 * Accessors throw ConfigError on type mismatches so that configuration
 * problems surface with a readable message instead of UB.
 */
class Value
{
  public:
    /** Construct a null value. */
    Value();
    Value(std::nullptr_t);
    Value(bool b);
    Value(double num);
    Value(int num);
    Value(std::int64_t num);
    Value(const char *s);
    Value(std::string s);
    Value(Array arr);
    Value(Object obj);

    Value(const Value &) = default;
    Value(Value &&) noexcept = default;
    Value &operator=(const Value &) = default;
    Value &operator=(Value &&) noexcept = default;

    bool isNull() const { return tag == Type::Null; }
    bool isArray() const { return tag == Type::Array; }
    bool isObject() const { return tag == Type::Object; }

    /** @name Checked accessors (throw ConfigError on mismatch)
     * @{
     */
    bool asBool() const;
    double asNumber() const;
    std::int64_t asInt() const;
    const std::string &asString() const;
    const Array &asArray() const;
    const Object &asObject() const;
    /** @} */

    /** Object member access; throws if absent or not an object. */
    const Value &at(const std::string &key) const;

    /** True if this is an object containing @p key. */
    bool contains(const std::string &key) const;

    /** Object member access with a default when the key is absent. */
    double numberOr(const std::string &key, double fallback) const;
    std::int64_t intOr(const std::string &key, std::int64_t fallback) const;
    bool boolOr(const std::string &key, bool fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    /** Serialize to a compact JSON string. */
    std::string dump() const;

    /** Serialize with 2-space indentation. */
    std::string dumpPretty() const;

    bool operator==(const Value &other) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type tag;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::shared_ptr<Array> arr;
    std::shared_ptr<Object> obj;
};

/**
 * Parse a complete JSON document.
 *
 * @throws ConfigError with line/column context on malformed input.
 */
Value parse(const std::string &text);

/** Parse the JSON document in the file at @p path. */
Value parseFile(const std::string &path);

} // namespace json
} // namespace treadmill

#endif // TREADMILL_UTIL_JSON_H_
