/**
 * @file
 * A string-keyed KV store of real value bytes, kept as a test-only
 * reference for the Memcached model's size-only store.
 *
 * It holds each value's bytes under its "key:<n>" string, as memcached
 * itself does, so the differential test can check that keeping only
 * integer key ids and value sizes changes no hit, miss or response
 * size.
 */

#ifndef TREADMILL_TESTS_SERVER_REFERENCE_KVSTORE_H_
#define TREADMILL_TESTS_SERVER_REFERENCE_KVSTORE_H_

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>

namespace treadmill {
namespace server {

/** Hash-table KV store of real bytes, unbounded. */
class ReferenceKvStore
{
  public:
    /** Store @p value under @p key, replacing any previous value. */
    void
    set(const std::string &key, std::string value)
    {
        table[key] = std::move(value);
    }

    /** Look up @p key; on a hit copy the stored bytes to @p value. */
    bool
    get(const std::string &key, std::string *value) const
    {
        const auto it = table.find(key);
        if (it == table.end())
            return false;
        if (value != nullptr)
            *value = it->second;
        return true;
    }

    std::size_t size() const { return table.size(); }

  private:
    std::unordered_map<std::string, std::string> table;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_TESTS_SERVER_REFERENCE_KVSTORE_H_
