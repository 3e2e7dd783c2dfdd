// tmlint:hot-path -- every server request lands in one of these LRU
// operations.
#include "server/kvstore.h"

#include "util/logging.h"

namespace treadmill {
namespace server {

KvStore::KvStore(std::uint64_t capacityBytes) : capacity(capacityBytes) {}

void
KvStore::set(std::uint64_t keyId, std::uint32_t valueBytes)
{
    ++setCount;
    if (const std::uint32_t *found = index.find(keyId)) {
        Entry &e = entries[*found];
        storedBytes -= e.valueBytes;
        storedBytes += valueBytes;
        e.valueBytes = valueBytes;
        unlink(*found);
        pushFront(*found);
    } else {
        std::uint32_t i = freeHead;
        if (i != kNil) {
            freeHead = entries[i].next;
        } else {
            TM_ASSERT(entries.size() < kNil, "KV store entry index overflow");
            i = static_cast<std::uint32_t>(entries.size());
            entries.emplace_back();
        }
        entries[i].keyId = keyId;
        entries[i].valueBytes = valueBytes;
        storedBytes += valueBytes;
        pushFront(i);
        index.insertOrAssign(keyId, i);
    }
    enforceCapacity();
}

std::optional<std::uint32_t>
KvStore::find(std::uint64_t keyId)
{
    const std::uint32_t *found = index.find(keyId);
    if (found == nullptr) {
        ++missCount;
        return std::nullopt;
    }
    ++hitCount;
    const std::uint32_t i = *found;
    unlink(i);
    pushFront(i);
    return entries[i].valueBytes;
}

std::vector<std::uint64_t>
KvStore::keysByRecency() const
{
    std::vector<std::uint64_t> keys;
    keys.reserve(size());
    for (std::uint32_t i = head; i != kNil; i = entries[i].next)
        keys.push_back(entries[i].keyId);
    return keys;
}

void
KvStore::unlink(std::uint32_t i)
{
    Entry &e = entries[i];
    if (e.prev != kNil)
        entries[e.prev].next = e.next;
    else
        head = e.next;
    if (e.next != kNil)
        entries[e.next].prev = e.prev;
    else
        tail = e.prev;
}

void
KvStore::pushFront(std::uint32_t i)
{
    Entry &e = entries[i];
    e.prev = kNil;
    e.next = head;
    if (head != kNil)
        entries[head].prev = i;
    else
        tail = i;
    head = i;
}

void
KvStore::enforceCapacity()
{
    if (capacity == 0)
        return;
    while (storedBytes > capacity && tail != kNil) {
        const std::uint32_t victim = tail;
        Entry &e = entries[victim];
        storedBytes -= e.valueBytes;
        index.erase(e.keyId);
        unlink(victim);
        e.next = freeHead;
        freeHead = victim;
        ++evictionCount;
    }
}

} // namespace server
} // namespace treadmill
