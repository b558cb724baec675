/**
 * @file
 * Order-statistic multiset of doubles backed by a list of sorted
 * blocks with a Fenwick index over block sizes.
 *
 * This is the cache-friendly order-statistic structure on the BMBP
 * hot path. A balanced tree (a treap, say) spends O(log n) *dependent*
 * pointer dereferences per operation (≈3·ln n node hops, each a
 * potential cache miss, plus one heap allocation per insert); this
 * structure spends two binary searches over contiguous arrays plus one
 * short memmove inside a single block, which the hardware prefetcher and
 * store buffers handle an order of magnitude faster at the history
 * sizes BMBP sees (tens of thousands of observations).
 *
 * Layout: values live in sorted order across a sequence of blocks of
 * at most kBlockCapacity doubles each. A parallel array of per-block
 * maxima locates the target block by binary search; a Fenwick tree
 * over block sizes answers prefix-count and k-th-element queries in
 * O(log #blocks). Splits (full block) and merges (underfull block)
 * rebuild the two O(#blocks) index arrays, amortized O(1) per update.
 *
 * Duplicate values are allowed; insert places new duplicates after
 * existing ones and erase removes exactly one occurrence, matching
 * std::multiset semantics (the test suite cross-checks the two under
 * random and sliding-window operation streams).
 */

#ifndef QDEL_UTIL_ORDER_STATISTIC_LIST_HH
#define QDEL_UTIL_ORDER_STATISTIC_LIST_HH

#include <cstddef>
#include <vector>

namespace qdel {

/** See file comment. */
class OrderStatisticList
{
  public:
    OrderStatisticList() = default;

    /** Insert one occurrence of @p value. */
    void insert(double value);

    /**
     * Remove one occurrence of @p value.
     * @return true when an occurrence existed and was removed.
     */
    bool erase(double value);

    /**
     * Select the k-th smallest element (0-based).
     * @pre k < size(); violated preconditions panic.
     */
    double kth(size_t k) const;

    /** Number of stored elements strictly less than @p value. */
    size_t countLess(double value) const;

    /** Number of stored elements less than or equal to @p value. */
    size_t countLessEqual(double value) const;

    /** Total number of stored elements. */
    size_t size() const { return size_; }

    /** @return true when empty. */
    bool empty() const { return size_ == 0; }

    /** Remove all elements. */
    void clear();

    /**
     * Replace the contents with @p values (any order). O(m log m);
     * this is what makes BMBP's change-point trim cheap — rebuilding
     * from the few retained observations instead of erasing the
     * discarded ones one at a time.
     */
    void assign(std::vector<double> values);

  private:
    /** Max doubles per block (2 KiB: a few cache lines, short memmoves). */
    static constexpr size_t kBlockCapacity = 256;

    /** Below this size a block tries to merge with a neighbour. */
    static constexpr size_t kMergeThreshold = kBlockCapacity / 4;

    /** Fill level used when splitting or bulk-loading. */
    static constexpr size_t kTargetFill = kBlockCapacity / 2;

    /** Index of the first block whose max is >= value (or #blocks). */
    size_t findBlockLower(double value) const;

    /** Rebuild maxes_ and fenwick_ from blocks_ (after split/merge). */
    void rebuildIndex();

    /** Add @p delta to block @p b's Fenwick counts. */
    void fenwickAdd(size_t b, long long delta);

    /** Sum of the sizes of the first @p b blocks. */
    size_t fenwickPrefix(size_t b) const;

    std::vector<std::vector<double>> blocks_;  //!< Sorted, never empty.
    std::vector<double> maxes_;                //!< maxes_[b] = blocks_[b].back()
    std::vector<size_t> fenwick_;              //!< 1-based, over block sizes.
    size_t size_ = 0;
};

} // namespace qdel

#endif // QDEL_UTIL_ORDER_STATISTIC_LIST_HH
