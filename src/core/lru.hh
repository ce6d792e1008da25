/**
 * @file
 * LRU orderings used by the primary disk cache and the per-region
 * block replacement lists (touch() moves a key to the MRU end, lru()
 * reads the coldest key).
 *
 *  - IntrusiveLru: index-linked array over dense uint32 ids; touch()
 *    is two loads and four stores — no hashing, no allocation. Backs
 *    Region::lruBlocks in the flash cache.
 *  - Pdc, the primary disk cache's page state, puts one Fcht in front
 *    of two IntrusiveLrus to order sparse LBAs the same way.
 *
 * The tests check both against the seed std::list + unordered_map
 * ordering in tests/support/lru_list.hh.
 */

#ifndef FLASHCACHE_CORE_LRU_HH
#define FLASHCACHE_CORE_LRU_HH

#include <cstdint>
#include <iterator>
#include <vector>

#include "core/tables.hh"
#include "util/log.hh"

namespace flashcache {

/**
 * LRU ordering over dense ids in [0, capacity): prev/next are
 * uint32 indices into one slab, keyed directly by the id. touch()
 * of a present id is two loads and four stores — no hashing, no
 * allocation, no pointer chasing through heap nodes.
 */
class IntrusiveLru
{
  public:
    static constexpr std::uint32_t kNull = ~0u;

    IntrusiveLru() = default;

    explicit IntrusiveLru(std::uint32_t capacity) { resize(capacity); }

    /** Ids must stay below the capacity; growing keeps membership. */
    void
    resize(std::uint32_t capacity)
    {
        nodes_.resize(capacity);
    }

    std::uint32_t capacity() const
    {
        return static_cast<std::uint32_t>(nodes_.size());
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    bool
    contains(std::uint32_t id) const
    {
        return id < nodes_.size() && nodes_[id].in;
    }

    /** Insert as MRU, or move an existing id to MRU. */
    void
    touch(std::uint32_t id)
    {
        Node& n = node(id);
        if (n.in) {
            if (head_ == id)
                return;
            unlink(n);
        } else {
            n.in = true;
            ++size_;
        }
        n.prev = kNull;
        n.next = head_;
        if (head_ != kNull)
            nodes_[head_].prev = id;
        head_ = id;
        if (tail_ == kNull)
            tail_ = id;
    }

    /** Remove an id if present. @return true when it was present. */
    bool
    erase(std::uint32_t id)
    {
        if (!contains(id))
            return false;
        Node& n = nodes_[id];
        unlink(n);
        n.in = false;
        n.prev = n.next = kNull;
        --size_;
        return true;
    }

    /** The least recently used id. @pre !empty() */
    std::uint32_t
    lru() const
    {
        if (empty())
            panic("lru() on empty IntrusiveLru");
        return tail_;
    }

    /** Remove and return the LRU id. @pre !empty() */
    std::uint32_t
    popLru()
    {
        const std::uint32_t id = lru();
        erase(id);
        return id;
    }

    void
    clear()
    {
        for (std::uint32_t id = head_; id != kNull;) {
            Node& n = nodes_[id];
            const std::uint32_t next = n.next;
            n.in = false;
            n.prev = n.next = kNull;
            id = next;
        }
        head_ = tail_ = kNull;
        size_ = 0;
    }

    /** Forward iteration from MRU to LRU, yielding ids. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::uint32_t;
        using difference_type = std::ptrdiff_t;
        using pointer = const std::uint32_t*;
        using reference = std::uint32_t;

        const_iterator() = default;

        const_iterator(const IntrusiveLru* l, std::uint32_t id)
            : l_(l), id_(id)
        {
        }

        std::uint32_t operator*() const { return id_; }

        const_iterator&
        operator++()
        {
            id_ = l_->nodes_[id_].next;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++*this;
            return old;
        }

        bool
        operator!=(const const_iterator& o) const
        {
            return id_ != o.id_;
        }

        bool
        operator==(const const_iterator& o) const
        {
            return id_ == o.id_;
        }

      private:
        const IntrusiveLru* l_ = nullptr;
        std::uint32_t id_ = kNull;
    };

    const_iterator begin() const { return {this, head_}; }
    const_iterator end() const { return {this, kNull}; }

  private:
    struct Node
    {
        std::uint32_t prev = kNull;
        std::uint32_t next = kNull;
        bool in = false;
    };

    Node&
    node(std::uint32_t id)
    {
        if (id >= nodes_.size())
            panic("IntrusiveLru id beyond capacity");
        return nodes_[id];
    }

    void
    unlink(Node& n)
    {
        if (n.prev != kNull)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != kNull)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
    }

    std::vector<Node> nodes_;
    std::uint32_t head_ = kNull;
    std::uint32_t tail_ = kNull;
    std::size_t size_ = 0;
};

/**
 * The primary disk cache's page state: which LBAs DRAM holds, in
 * recency order, and which of them are dirty, in the order they were
 * last written. One Fcht maps an LBA to its slot id, and two
 * IntrusiveLrus over the slot ids keep the two orders, so a hit
 * probes the index once. Everything is sized from the capacity at
 * construction: serving never allocates.
 */
class Pdc
{
  public:
    /** A page evict() dropped; a dirty one still needs writing back. */
    struct Victim
    {
        Lba lba;
        bool dirty;
    };

    explicit Pdc(std::uint32_t capacity)
        : lbas_(capacity), recency_(capacity), dirty_(capacity)
    {
        index_.reserve(capacity);
        free_.reserve(capacity);
    }

    std::uint32_t capacity() const { return recency_.capacity(); }
    std::size_t size() const { return recency_.size(); }
    bool full() const { return size() == capacity(); }
    std::size_t dirtyPages() const { return dirty_.size(); }

    /**
     * Move a cached page to the MRU end; a dirty access also moves
     * it to the MRU end of the dirty order. @return false, changing
     * nothing, when the page is not cached.
     */
    bool
    touch(Lba lba, bool dirty)
    {
        const std::uint64_t slot = index_.find(lba);
        if (slot == Fcht::npos)
            return false;
        recency_.touch(static_cast<std::uint32_t>(slot));
        if (dirty)
            dirty_.touch(static_cast<std::uint32_t>(slot));
        return true;
    }

    /** Cache a page as MRU. @pre the page is absent and !full() */
    void
    insert(Lba lba, bool dirty)
    {
        if (full())
            panic("insert into a full Pdc");
        // Without freed slots, the live ones are exactly [0, size).
        std::uint32_t slot = static_cast<std::uint32_t>(size());
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        }
        index_.insert(lba, slot);
        lbas_[slot] = lba;
        recency_.touch(slot);
        if (dirty)
            dirty_.touch(slot);
    }

    /** Drop the least recently used page. @pre size() > 0 */
    Victim
    evict()
    {
        const std::uint32_t slot = recency_.popLru();
        const Victim v{lbas_[slot], dirty_.erase(slot)};
        index_.erase(v.lba);
        free_.push_back(slot);
        return v;
    }

    /** Mark the coldest dirty page clean; it stays cached.
     *  @return its LBA. @pre dirtyPages() > 0 */
    Lba popDirty() { return lbas_[dirty_.popLru()]; }

  private:
    Fcht index_;                      ///< LBA -> slot id
    std::vector<Lba> lbas_;           ///< slot id -> LBA
    std::vector<std::uint32_t> free_; ///< slots evict() released
    IntrusiveLru recency_;            ///< every cached page
    IntrusiveLru dirty_;              ///< pages not yet written back
};

} // namespace flashcache

#endif // FLASHCACHE_CORE_LRU_HH
