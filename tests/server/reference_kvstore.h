/**
 * @file
 * The string-keyed KV store the Memcached model used before the
 * size-only server::KvStore, kept as a test-only reference.
 *
 * It holds real value bytes in a std::list LRU indexed by an
 * unordered_map from "key:<n>" strings, exactly as the old store did,
 * and additionally logs its evictions so the differential test can
 * compare eviction sequences op by op.
 */

#ifndef TREADMILL_TESTS_SERVER_REFERENCE_KVSTORE_H_
#define TREADMILL_TESTS_SERVER_REFERENCE_KVSTORE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace treadmill {
namespace server {

/** Hash-table KV store of real bytes with size-bounded LRU eviction. */
class ReferenceKvStore
{
  public:
    /** @param capacityBytes Eviction threshold on stored value bytes
     *  (0 means unbounded). */
    explicit ReferenceKvStore(std::uint64_t capacityBytes)
        : capacity(capacityBytes)
    {
    }

    /** Store @p value under @p key, updating LRU order and evicting
     *  if over capacity. */
    void
    set(const std::string &key, std::string value)
    {
        ++setCount;
        const auto it = table.find(key);
        if (it != table.end()) {
            storedBytes -= it->second->value.size();
            storedBytes += value.size();
            it->second->value = std::move(value);
            lru.splice(lru.begin(), lru, it->second);
        } else {
            storedBytes += value.size();
            lru.push_front(Entry{key, std::move(value)});
            table[key] = lru.begin();
        }
        enforceCapacity();
    }

    /** Look up @p key; on a hit copy the stored bytes to @p value. */
    bool
    get(const std::string &key, std::string *value)
    {
        const auto it = table.find(key);
        if (it == table.end()) {
            ++missCount;
            return false;
        }
        ++hitCount;
        lru.splice(lru.begin(), lru, it->second);
        if (value != nullptr)
            *value = it->second->value;
        return true;
    }

    std::size_t size() const { return table.size(); }
    std::uint64_t bytesStored() const { return storedBytes; }
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }
    std::uint64_t sets() const { return setCount; }
    std::uint64_t evictions() const { return evictionCount; }

    /** Live keys, most recently used first. */
    std::vector<std::string>
    keysByRecency() const
    {
        std::vector<std::string> keys;
        for (const Entry &e : lru)
            keys.push_back(e.key);
        return keys;
    }

    /** Keys evicted since the last call, in eviction order. */
    std::vector<std::string>
    takeEvicted()
    {
        return std::exchange(evictedLog, {});
    }

  private:
    struct Entry {
        std::string key;
        std::string value;
    };
    using LruList = std::list<Entry>;

    void
    enforceCapacity()
    {
        if (capacity == 0)
            return;
        while (storedBytes > capacity && !lru.empty()) {
            const Entry &victim = lru.back();
            storedBytes -= victim.value.size();
            evictedLog.push_back(victim.key);
            table.erase(victim.key);
            lru.pop_back();
            ++evictionCount;
        }
    }

    std::uint64_t capacity;
    LruList lru; ///< Front = most recently used.
    std::unordered_map<std::string, LruList::iterator> table;
    std::vector<std::string> evictedLog;
    std::uint64_t storedBytes = 0;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
    std::uint64_t setCount = 0;
    std::uint64_t evictionCount = 0;
};

} // namespace server
} // namespace treadmill

#endif // TREADMILL_TESTS_SERVER_REFERENCE_KVSTORE_H_
