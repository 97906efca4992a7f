// In-memory TPC-C database: storage, loader and (static) secondary indexes.
//
// Tables are dense arrays keyed by the TPC-C composite primary keys (all ids
// 1-based, as in the spec). ORDER / ORDER-LINE / HISTORY use per-district
// ring buffers whose capacity bounds the in-flight window — an in-memory
// stand-in for unbounded table growth that preserves the benchmark's access
// patterns (append at d_next_o_id, pop-oldest in DELIVERY, scan-recent in
// STOCK-LEVEL).
//
// The customer-by-last-name index is immutable after load (names never
// change in TPC-C), so transactions may probe it without instrumentation —
// mirroring the paper's setup, which disables Silo's record indexing so that
// only core concurrency control is compared.
//
// Every table starts on a cache-line boundary (Table below). The HTM models
// detect conflicts and capacity per 128-byte line, keyed by address, so the
// rows that share a line must follow from the schema alone — with malloc's
// 16-byte alignment they would follow from where the heap put each array,
// and a seeded simulation would change with the allocator's layout.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "tpcc/schema.hpp"
#include "tpcc/tpcc_random.hpp"
#include "util/cacheline.hpp"

namespace si::tpcc {

struct DbConfig {
  int warehouses = 1;
  int items = 10000;                   ///< spec: 100,000 (scaled, see DESIGN.md)
  int customers_per_district = 3000;
  int initial_orders_per_district = 100;  ///< spec: 3000 (scaled)
  unsigned order_ring_bits = 11;       ///< orders kept per district (2^bits)
  unsigned history_ring_bits = 14;     ///< history rows kept per warehouse
  std::uint64_t seed = 20260704;
};

/// Allocator that puts every array on a kLineSize boundary.
template <typename T>
struct LineAllocator {
  using value_type = T;
  LineAllocator() = default;
  template <typename U>
  LineAllocator(const LineAllocator<U>&) noexcept {}
  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{si::util::kLineSize}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{si::util::kLineSize});
  }
  friend bool operator==(const LineAllocator&, const LineAllocator&) noexcept {
    return true;
  }
};

/// A line-aligned table.
template <typename T>
using Table = std::vector<T, LineAllocator<T>>;

/// Per-district new-order FIFO (the undelivered-order queue).
struct alignas(si::util::kLineSize) NewOrderQueue {
  std::int64_t head = 0;  ///< next slot DELIVERY pops
  std::int64_t tail = 0;  ///< next slot NEW-ORDER fills
};

/// Per-warehouse history append cursor.
struct alignas(si::util::kLineSize) HistoryCursor {
  std::int64_t next = 0;
};

class Db {
 public:
  explicit Db(const DbConfig& cfg);

  const DbConfig& config() const noexcept { return cfg_; }
  std::int64_t order_ring_capacity() const noexcept {
    return std::int64_t{1} << cfg_.order_ring_bits;
  }

  // --- row accessors (1-based TPC-C ids) -----------------------------------
  Warehouse& warehouse(int w) { return warehouses_[static_cast<std::size_t>(w - 1)]; }
  District& district(int w, int d) {
    return districts_[static_cast<std::size_t>(dix(w, d))];
  }
  Customer& customer(int w, int d, int c) {
    return customers_[static_cast<std::size_t>(dix(w, d)) * cfg_.customers_per_district +
                      (c - 1)];
  }
  Item& item(int i) { return items_[static_cast<std::size_t>(i - 1)]; }
  Stock& stock(int w, int i) {
    return stocks_[static_cast<std::size_t>(w - 1) * cfg_.items + (i - 1)];
  }

  /// Order slot for `o_id` in district (w, d); o_ids wrap around the ring.
  Order& order_slot(int w, int d, std::int64_t o_id) {
    return orders_[static_cast<std::size_t>(dix(w, d)) * order_ring_capacity() +
                   (o_id & (order_ring_capacity() - 1))];
  }
  OrderLine& order_line(int w, int d, std::int64_t o_id, int ol_number) {
    const auto slot = static_cast<std::size_t>(dix(w, d)) * order_ring_capacity() +
                      (o_id & (order_ring_capacity() - 1));
    return order_lines_[slot * kMaxOrderLines + (ol_number - 1)];
  }

  NewOrderQueue& no_queue(int w, int d) {
    return no_queues_[static_cast<std::size_t>(dix(w, d))];
  }
  std::int64_t& no_ring_slot(int w, int d, std::int64_t pos) {
    return no_rings_[static_cast<std::size_t>(dix(w, d)) * order_ring_capacity() +
                     (pos & (order_ring_capacity() - 1))];
  }

  HistoryCursor& history_cursor(int w) {
    return history_cursors_[static_cast<std::size_t>(w - 1)];
  }
  History& history_slot(int w, std::int64_t pos) {
    const std::int64_t cap = std::int64_t{1} << cfg_.history_ring_bits;
    return history_[static_cast<std::size_t>(w - 1) * cap + (pos & (cap - 1))];
  }

  /// The most recent o_id of a customer (0 = none); written by NEW-ORDER,
  /// read by ORDER-STATUS. Shared mutable state: access transactionally.
  std::int64_t& last_order_of(int w, int d, int c) {
    return last_order_[static_cast<std::size_t>(dix(w, d)) *
                           cfg_.customers_per_district +
                       (c - 1)];
  }

  /// Customers in (w, d) whose last name has number `num` (0..999), sorted
  /// by first name (clause 2.5.2.2). Immutable after load.
  const Table<std::int32_t>& customers_by_name(int w, int d, int num) const {
    return name_index_[static_cast<std::size_t>(dix(w, d)) * 1000 + num];
  }

  const NurandC& nurand_constants() const noexcept { return nurand_c_; }

  // --- non-transactional whole-table scans (setup & consistency tests) -----

  /// Clause 3.3.2.1: W_YTD = sum(D_YTD) for every warehouse.
  bool check_ytd_consistency() const;

  /// Clause 3.3.2.2/.3: for each district, d_next_o_id - 1 equals the
  /// largest o_id in the order ring and the new-order queue is a contiguous
  /// suffix of the issued o_ids.
  bool check_order_id_consistency();

  std::int64_t total_new_order_queue_length() const;

 private:
  int dix(int w, int d) const noexcept {
    return (w - 1) * kDistrictsPerWarehouse + (d - 1);
  }

  void load();

  DbConfig cfg_;
  NurandC nurand_c_;
  Table<Warehouse> warehouses_;
  Table<District> districts_;
  Table<Customer> customers_;
  Table<Item> items_;
  Table<Stock> stocks_;
  Table<Order> orders_;
  Table<OrderLine> order_lines_;
  Table<History> history_;
  Table<HistoryCursor> history_cursors_;
  Table<NewOrderQueue> no_queues_;
  Table<std::int64_t> no_rings_;
  Table<std::int64_t> last_order_;
  std::vector<Table<std::int32_t>> name_index_;
};

}  // namespace si::tpcc
