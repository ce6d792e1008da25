/**
 * @file
 * LruList<Key>: the seed std::list + unordered_map LRU ordering, kept
 * as the differential-test oracle for IntrusiveLru and, as a
 * recency/dirty pair, for Pdc, and as micro_cache's baseline. It has
 * the same contract: touch() moves a key to the MRU end, lru() reads
 * the coldest key.
 */

#ifndef FLASHCACHE_TESTS_SUPPORT_LRU_LIST_HH
#define FLASHCACHE_TESTS_SUPPORT_LRU_LIST_HH

#include <list>
#include <unordered_map>

#include "util/log.hh"

namespace flashcache {

/**
 * An ordered set of keys where touch() moves a key to the MRU end
 * and lru() reads the coldest key. All operations are O(1), but each
 * carries a hash lookup and inserts allocate a list node. Retained
 * as the reference implementation; the serving hot paths use
 * IntrusiveLru and Pdc below.
 */
template <typename Key>
class LruList
{
  public:
    bool empty() const { return order_.empty(); }
    std::size_t size() const { return order_.size(); }

    bool contains(const Key& k) const { return index_.count(k) != 0; }

    /** Insert as MRU, or move an existing key to MRU. */
    void
    touch(const Key& k)
    {
        auto it = index_.find(k);
        if (it != index_.end()) {
            // splice() relinks the existing node: the iterator stays
            // valid, so no index update (and no allocation) needed.
            order_.splice(order_.begin(), order_, it->second);
            return;
        }
        order_.push_front(k);
        index_.emplace(k, order_.begin());
    }

    /** Remove a key if present. @return true when it was present. */
    bool
    erase(const Key& k)
    {
        auto it = index_.find(k);
        if (it == index_.end())
            return false;
        order_.erase(it->second);
        index_.erase(it);
        return true;
    }

    /** The least recently used key. @pre !empty() */
    const Key&
    lru() const
    {
        if (order_.empty())
            panic("lru() on empty LruList");
        return order_.back();
    }

    /** Remove and return the LRU key. @pre !empty() */
    Key
    popLru()
    {
        Key k = lru();
        erase(k);
        return k;
    }

    /** Iterate from MRU to LRU. */
    auto begin() const { return order_.begin(); }
    auto end() const { return order_.end(); }

    void
    clear()
    {
        order_.clear();
        index_.clear();
    }

  private:
    std::list<Key> order_;
    std::unordered_map<Key, typename std::list<Key>::iterator> index_;
};

} // namespace flashcache

#endif // FLASHCACHE_TESTS_SUPPORT_LRU_LIST_HH
