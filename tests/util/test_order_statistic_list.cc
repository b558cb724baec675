/**
 * @file
 * Tests for the sorted-block order-statistic multiset that backs the
 * predictor history windows: unit behaviour, duplicate semantics, the
 * bulk assign() used by BMBP's change-point trim, and differential
 * checks against std::multiset.
 */

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "stats/rng.hh"
#include "util/order_statistic_list.hh"

namespace qdel {
namespace {

TEST(OrderStatisticList, EmptyBasics)
{
    OrderStatisticList list;
    EXPECT_EQ(list.size(), 0u);
    EXPECT_TRUE(list.empty());
    EXPECT_FALSE(list.erase(1.0));
    EXPECT_EQ(list.countLess(5.0), 0u);
    EXPECT_EQ(list.countLessEqual(5.0), 0u);
}

TEST(OrderStatisticList, InsertAndSelect)
{
    OrderStatisticList list;
    for (double v : {5.0, 1.0, 3.0, 2.0, 4.0})
        list.insert(v);
    ASSERT_EQ(list.size(), 5u);
    for (size_t k = 0; k < 5; ++k)
        EXPECT_DOUBLE_EQ(list.kth(k), static_cast<double>(k + 1));
}

TEST(OrderStatisticList, DuplicatesEraseOneOccurrence)
{
    OrderStatisticList list;
    list.insert(2.0);
    list.insert(2.0);
    list.insert(1.0);
    ASSERT_EQ(list.size(), 3u);
    EXPECT_DOUBLE_EQ(list.kth(0), 1.0);
    EXPECT_DOUBLE_EQ(list.kth(1), 2.0);
    EXPECT_DOUBLE_EQ(list.kth(2), 2.0);
    EXPECT_TRUE(list.erase(2.0));
    EXPECT_EQ(list.size(), 2u);
    EXPECT_DOUBLE_EQ(list.kth(1), 2.0);
    EXPECT_TRUE(list.erase(2.0));
    EXPECT_FALSE(list.erase(2.0));
    EXPECT_EQ(list.size(), 1u);
}

TEST(OrderStatisticList, CountLess)
{
    OrderStatisticList list;
    for (double v : {1.0, 2.0, 2.0, 3.0})
        list.insert(v);
    EXPECT_EQ(list.countLess(2.0), 1u);
    EXPECT_EQ(list.countLessEqual(2.0), 3u);
    EXPECT_EQ(list.countLess(0.5), 0u);
    EXPECT_EQ(list.countLessEqual(10.0), 4u);
}

TEST(OrderStatisticList, AssignReplacesContents)
{
    OrderStatisticList list;
    for (int i = 0; i < 1000; ++i)
        list.insert(static_cast<double>(i));
    list.assign({3.0, 1.0, 2.0, 2.0});
    ASSERT_EQ(list.size(), 4u);
    EXPECT_DOUBLE_EQ(list.kth(0), 1.0);
    EXPECT_DOUBLE_EQ(list.kth(1), 2.0);
    EXPECT_DOUBLE_EQ(list.kth(2), 2.0);
    EXPECT_DOUBLE_EQ(list.kth(3), 3.0);
    list.assign({});
    EXPECT_TRUE(list.empty());
}

TEST(OrderStatisticList, Clear)
{
    OrderStatisticList list;
    for (int i = 0; i < 1000; ++i)
        list.insert(static_cast<double>(i % 13));
    list.clear();
    EXPECT_TRUE(list.empty());
    list.insert(7.0);
    EXPECT_DOUBLE_EQ(list.kth(0), 7.0);
}

TEST(OrderStatisticList, BlockSplitsPreserveOrderStatistics)
{
    // Push enough strictly increasing then decreasing values through
    // to force many block splits at both ends.
    OrderStatisticList list;
    std::vector<double> values;
    for (int i = 0; i < 5000; ++i) {
        const double v = static_cast<double>((i * 37) % 1000) +
                         static_cast<double>(i) / 10000.0;
        values.push_back(v);
        list.insert(v);
    }
    std::sort(values.begin(), values.end());
    ASSERT_EQ(list.size(), values.size());
    for (size_t k = 0; k < values.size(); k += 7)
        ASSERT_DOUBLE_EQ(list.kth(k), values[k]);
}

/**
 * Differential test against std::multiset: the block list must be
 * observably identical under random insert / erase
 * / select, including the merge path (erase-heavy phases shrink blocks
 * below the merge threshold).
 */
TEST(OrderStatisticList, DifferentialAgainstMultiset)
{
    OrderStatisticList list;
    std::multiset<double> reference;
    stats::Rng rng(12345);

    for (int step = 0; step < 20000; ++step) {
        const double value =
            static_cast<double>(rng.uniformInt(0, 200)) / 4.0;
        // Bias toward erase in the second half to exercise merges.
        const int op = static_cast<int>(
            rng.uniformInt(0, step < 10000 ? 2 : 3));
        if (op == 0 || reference.empty()) {
            list.insert(value);
            reference.insert(value);
        } else if (op == 2) {
            const size_t k = static_cast<size_t>(rng.uniformInt(
                0, static_cast<long long>(reference.size()) - 1));
            auto it = reference.begin();
            std::advance(it, static_cast<long>(k));
            ASSERT_DOUBLE_EQ(list.kth(k), *it) << "at step " << step;
        } else {
            auto it = reference.find(value);
            const bool erased_ref = it != reference.end();
            if (erased_ref)
                reference.erase(it);
            EXPECT_EQ(list.erase(value), erased_ref);
        }
        ASSERT_EQ(list.size(), reference.size());
    }
}

/**
 * The predictors' access pattern against std::multiset: heavy
 * duplicates (like zero-wait jobs) and a sliding-window erase of the
 * oldest value, with identical observable state throughout.
 */
TEST(OrderStatisticList, SlidingWindowDifferentialAgainstMultiset)
{
    OrderStatisticList list;
    std::multiset<double> reference;
    std::vector<double> window;
    stats::Rng rng(777);

    for (int step = 0; step < 30000; ++step) {
        // Coarse values -> many exact duplicates, like zero-wait jobs.
        const double value =
            static_cast<double>(rng.uniformInt(0, 30)) * 0.5;
        window.push_back(value);
        list.insert(value);
        reference.insert(value);
        if (window.size() > 500) {
            const double oldest = window.front();
            window.erase(window.begin());
            ASSERT_TRUE(list.erase(oldest));
            reference.erase(reference.find(oldest));
        }
        ASSERT_EQ(list.size(), reference.size());
        if (step % 97 == 0) {
            auto it = reference.begin();
            for (size_t k = 0; k < list.size(); k += 13) {
                ASSERT_DOUBLE_EQ(list.kth(k), *it) << "at step " << step;
                std::advance(it, std::min<size_t>(13, list.size() - k));
            }
        }
    }
}

} // namespace
} // namespace qdel
