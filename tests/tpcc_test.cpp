// TPC-C tests: loader invariants, per-transaction logic (single-threaded via
// a pass-through handle), and cross-backend concurrent consistency.
#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "runtime/driver.hpp"
#include "runtime/runtime.hpp"
#include "tpcc/db.hpp"
#include "tpcc/transactions.hpp"
#include "tpcc/workload.hpp"
#include "util/rng.hpp"

namespace {

using namespace si::tpcc;

struct DirectTx {
  template <typename T>
  T read(const T* addr) {
    return *addr;
  }
  template <typename T>
  void write(T* addr, const T& v) {
    *addr = v;
  }
  void read_bytes(void* dst, const void* src, std::size_t n) {
    std::memcpy(dst, src, n);
  }
  void write_bytes(void* dst, const void* src, std::size_t n) {
    std::memcpy(dst, src, n);
  }
};

DbConfig tiny_db(int warehouses = 1) {
  DbConfig cfg;
  cfg.warehouses = warehouses;
  cfg.items = 200;
  cfg.customers_per_district = 60;
  cfg.initial_orders_per_district = 40;
  cfg.order_ring_bits = 8;
  cfg.history_ring_bits = 10;
  return cfg;
}

// --- random helpers -----------------------------------------------------

TEST(TpccRandom, NurandStaysInRange) {
  si::util::Xoshiro256 rng(1);
  for (int i = 0; i < 20000; ++i) {
    const auto v = nurand(rng, 1023, 1, 3000, 259);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, 3000u);
  }
}

TEST(TpccRandom, NurandIsNonUniform) {
  // The OR of two uniforms skews low bits; spot-check that the distribution
  // is visibly non-flat (the hallmark of NURand item popularity).
  si::util::Xoshiro256 rng(2);
  int histogram[8] = {};
  for (int i = 0; i < 80000; ++i) {
    histogram[nurand(rng, 8191, 1, 8000, 7911) / 1001]++;
  }
  int lo = histogram[0], hi = histogram[0];
  for (int h : histogram) {
    lo = std::min(lo, h);
    hi = std::max(hi, h);
  }
  EXPECT_GT(hi, lo * 5 / 4);  // > 25% spread between octiles
}

TEST(TpccRandom, LastnameSyllables) {
  char out[16];
  lastname(0, out);
  EXPECT_STREQ(out, "BARBARBAR");
  lastname(371, out);
  EXPECT_STREQ(out, "PRICALLYOUGHT");
  lastname(999, out);
  EXPECT_STREQ(out, "EINGEINGEING");
}

// --- loader ----------------------------------------------------------------

TEST(TpccLoader, CardinalitiesAndInitialState) {
  Db db(tiny_db(2));
  for (int w = 1; w <= 2; ++w) {
    EXPECT_EQ(db.warehouse(w).w_id, w);
    EXPECT_EQ(db.warehouse(w).w_ytd, 300'000'00);
    for (int d = 1; d <= kDistrictsPerWarehouse; ++d) {
      EXPECT_EQ(db.district(w, d).d_next_o_id, 41);
      // 30% of the 40 initial orders are queued for delivery.
      EXPECT_EQ(db.no_queue(w, d).tail - db.no_queue(w, d).head, 12);
    }
  }
  EXPECT_TRUE(db.check_ytd_consistency());
  EXPECT_TRUE(db.check_order_id_consistency());
}

TEST(TpccLoader, NameIndexCoversAllCustomersSortedByFirstName) {
  Db db(tiny_db());
  std::size_t indexed = 0;
  for (int num = 0; num < 1000; ++num) {
    const auto& group = db.customers_by_name(1, 1, num);
    indexed += group.size();
    for (std::size_t i = 1; i < group.size(); ++i) {
      EXPECT_LE(std::strncmp(db.customer(1, 1, group[i - 1]).c_first,
                             db.customer(1, 1, group[i]).c_first, 16),
                0);
    }
    for (auto c : group) {
      char expect[16];
      lastname(num, expect);
      EXPECT_STREQ(db.customer(1, 1, c).c_last, expect);
    }
  }
  EXPECT_EQ(indexed, 60u);
}

// The simulated HTM finds conflicts per 128-byte line, keyed by address, so
// every table must start on a line boundary: otherwise which rows share a
// line (two OrderLines, several History rows or ring slots) depends on where
// the heap put the array, and a seeded simulation depends on the allocator.
// The benchmark-sized config puts order_lines_ in an mmap'd chunk, whose
// payload malloc starts 16 bytes past a page boundary.
TEST(TpccLoader, EveryTableStartsOnALineBoundary) {
  Db db(DbConfig{});
  const auto aligned = [](const void* p) {
    return reinterpret_cast<std::uintptr_t>(p) % si::util::kLineSize == 0;
  };
  EXPECT_TRUE(aligned(&db.warehouse(1)));
  EXPECT_TRUE(aligned(&db.district(1, 1)));
  EXPECT_TRUE(aligned(&db.customer(1, 1, 1)));
  EXPECT_TRUE(aligned(&db.item(1)));
  EXPECT_TRUE(aligned(&db.stock(1, 1)));
  EXPECT_TRUE(aligned(&db.order_slot(1, 1, 0)));
  EXPECT_TRUE(aligned(&db.order_line(1, 1, 0, 1)));
  EXPECT_TRUE(aligned(&db.history_slot(1, 0)));
  EXPECT_TRUE(aligned(&db.history_cursor(1)));
  EXPECT_TRUE(aligned(&db.no_queue(1, 1)));
  EXPECT_TRUE(aligned(&db.no_ring_slot(1, 1, 0)));
  EXPECT_TRUE(aligned(&db.last_order_of(1, 1, 1)));
  for (int num = 0; num < 1000; ++num) {
    const auto& group = db.customers_by_name(1, 1, num);
    if (!group.empty()) {
      EXPECT_TRUE(aligned(group.data())) << num;
    }
  }
}

TEST(TpccLoader, UndeliveredOrdersHaveNoCarrier) {
  Db db(tiny_db());
  const auto& q = db.no_queue(1, 1);
  for (std::int64_t pos = q.head; pos < q.tail; ++pos) {
    const std::int64_t o_id = db.no_ring_slot(1, 1, pos);
    EXPECT_EQ(db.order_slot(1, 1, o_id).o_carrier_id, 0);
  }
}

TEST(TpccLoader, RejectsInvalidConfig) {
  DbConfig bad = tiny_db();
  bad.initial_orders_per_district = 10000;  // exceeds 2^8 ring
  EXPECT_THROW(Db{bad}, std::invalid_argument);
  DbConfig zero = tiny_db();
  zero.warehouses = 0;
  EXPECT_THROW(Db{zero}, std::invalid_argument);
}

// --- transaction logic (single-threaded) -----------------------------------

TEST(TpccNewOrder, AdvancesOrderIdAndWritesLines) {
  Db db(tiny_db());
  DirectTx tx;
  si::util::Xoshiro256 rng(5);
  const NewOrderInput in = make_new_order_input(db, 1, rng);
  const std::int64_t before = db.district(1, in.d_id).d_next_o_id;
  const std::int64_t queue_before =
      db.no_queue(1, in.d_id).tail - db.no_queue(1, in.d_id).head;

  const NewOrderResult r = new_order(tx, db, in, 123);

  EXPECT_EQ(r.o_id, before);
  EXPECT_EQ(db.district(1, in.d_id).d_next_o_id, before + 1);
  EXPECT_EQ(db.no_queue(1, in.d_id).tail - db.no_queue(1, in.d_id).head,
            queue_before + 1);
  EXPECT_EQ(db.last_order_of(1, in.d_id, in.c_id), r.o_id);

  const Order& o = db.order_slot(1, in.d_id, r.o_id);
  EXPECT_EQ(o.o_c_id, in.c_id);
  EXPECT_EQ(o.o_ol_cnt, in.ol_cnt);
  EXPECT_EQ(o.o_carrier_id, 0);
  EXPECT_GT(r.total_amount, 0);
  for (int l = 1; l <= in.ol_cnt; ++l) {
    const OrderLine& ol = db.order_line(1, in.d_id, r.o_id, l);
    EXPECT_EQ(ol.ol_o_id, r.o_id);
    EXPECT_EQ(ol.ol_i_id, in.lines[l - 1].i_id);
    EXPECT_EQ(ol.ol_amount, db.item(ol.ol_i_id).i_price * ol.ol_quantity);
  }
  EXPECT_TRUE(db.check_order_id_consistency());
}

TEST(TpccNewOrder, RestocksBelowTen) {
  Db db(tiny_db());
  DirectTx tx;
  NewOrderInput in;
  in.w_id = 1;
  in.d_id = 1;
  in.c_id = 1;
  in.ol_cnt = 1;
  in.lines[0] = {.i_id = 7, .supply_w_id = 1, .quantity = 10};
  db.stock(1, 7).s_quantity = 12;  // 12 - 10 < 10 triggers the +91 restock
  new_order(tx, db, in, 1);
  EXPECT_EQ(db.stock(1, 7).s_quantity, 12 - 10 + 91);
  EXPECT_EQ(db.stock(1, 7).s_ytd, 10);
  EXPECT_EQ(db.stock(1, 7).s_order_cnt, 1);

  db.stock(1, 7).s_quantity = 50;  // plain decrement path
  new_order(tx, db, in, 2);
  EXPECT_EQ(db.stock(1, 7).s_quantity, 40);
}

TEST(TpccPayment, UpdatesBalancesAndYtdConsistency) {
  Db db(tiny_db());
  DirectTx tx;
  PaymentInput in;
  in.w_id = 1;
  in.d_id = 2;
  in.c_w_id = 1;
  in.c_d_id = 2;
  in.c_id = 3;
  in.amount = 12345;
  const Money bal_before = db.customer(1, 2, 3).c_balance;
  payment(tx, db, in, 9);
  EXPECT_EQ(db.customer(1, 2, 3).c_balance, bal_before - 12345);
  EXPECT_EQ(db.customer(1, 2, 3).c_payment_cnt, 2);
  EXPECT_TRUE(db.check_ytd_consistency());
  const History& h = db.history_slot(1, 0);
  EXPECT_EQ(h.h_amount, 12345);
  EXPECT_EQ(h.h_c_id, 3);
}

TEST(TpccPayment, BadCreditRewritesData) {
  Db db(tiny_db());
  // Find a bad-credit customer (10% are loaded as "BC").
  int bc = 0;
  for (int c = 1; c <= db.config().customers_per_district; ++c) {
    if (db.customer(1, 1, c).c_credit[0] == 'B') {
      bc = c;
      break;
    }
  }
  ASSERT_NE(bc, 0) << "loader produced no bad-credit customer in 60";
  DirectTx tx;
  PaymentInput in;
  in.w_id = in.c_w_id = 1;
  in.d_id = in.c_d_id = 1;
  in.c_id = bc;
  in.amount = 777;
  payment(tx, db, in, 1);
  EXPECT_NE(std::strstr(db.customer(1, 1, bc).c_data, "777"), nullptr);
}

TEST(TpccPayment, SelectByLastNamePicksMedian) {
  Db db(tiny_db());
  // Name number 0 ("BARBARBAR") covers customers 1..min(1000, C): for C=60
  // every customer has a sequential name, so group 0 = {1}.
  const int c = select_customer_by_name(db, 1, 1, 0);
  EXPECT_EQ(c, 1);
  EXPECT_EQ(select_customer_by_name(db, 1, 1, 999), 0);  // empty group
}

TEST(TpccOrderStatus, ReturnsLatestOrder) {
  Db db(tiny_db());
  DirectTx tx;
  si::util::Xoshiro256 rng(8);
  NewOrderInput in = make_new_order_input(db, 1, rng);
  in.c_id = 5;
  const NewOrderResult r = new_order(tx, db, in, 77);
  const OrderStatusResult os = order_status(tx, db, 1, in.d_id, 5, 0);
  EXPECT_EQ(os.o_id, r.o_id);
  EXPECT_EQ(os.o_carrier_id, 0);
  EXPECT_EQ(os.lines, in.ol_cnt);
}

TEST(TpccDelivery, PopsOldestAndCreditsCustomer) {
  Db db(tiny_db());
  DirectTx tx;
  const auto& q = db.no_queue(1, 1);
  const std::int64_t oldest = db.no_ring_slot(1, 1, q.head);
  const int c_id = db.order_slot(1, 1, oldest).o_c_id;
  const Money bal_before = db.customer(1, 1, c_id).c_balance;

  Money expected_total = 0;
  const Order& o = db.order_slot(1, 1, oldest);
  for (int l = 1; l <= o.o_ol_cnt; ++l) {
    expected_total += db.order_line(1, 1, oldest, l).ol_amount;
  }

  const std::int64_t delivered = delivery_district(tx, db, 1, 1, 6, 55);
  EXPECT_EQ(delivered, oldest);
  EXPECT_EQ(db.order_slot(1, 1, oldest).o_carrier_id, 6);
  EXPECT_EQ(db.customer(1, 1, c_id).c_balance, bal_before + expected_total);
  EXPECT_EQ(db.customer(1, 1, c_id).c_delivery_cnt, 1);
  for (int l = 1; l <= o.o_ol_cnt; ++l) {
    EXPECT_EQ(db.order_line(1, 1, oldest, l).ol_delivery_d, 55);
  }
}

TEST(TpccDelivery, EmptyQueueReturnsZero) {
  Db db(tiny_db());
  DirectTx tx;
  int popped = 0;
  while (delivery_district(tx, db, 1, 1, 1, 1) != 0) ++popped;
  EXPECT_EQ(popped, 12);  // exactly the loaded backlog
  EXPECT_EQ(delivery_district(tx, db, 1, 1, 1, 1), 0);
}

TEST(TpccStockLevel, ThresholdMonotonic) {
  Db db(tiny_db());
  DirectTx tx;
  std::vector<std::int32_t> scratch;
  const int at_10 = stock_level(tx, db, 1, 1, 10, scratch);
  const int at_50 = stock_level(tx, db, 1, 1, 50, scratch);
  const int at_1000 = stock_level(tx, db, 1, 1, 1000, scratch);
  EXPECT_LE(at_10, at_50);
  EXPECT_LE(at_50, at_1000);
  EXPECT_EQ(at_10, 0);            // loader floor is s_quantity >= 10
  EXPECT_GT(at_1000, 0);          // everything is below 1000
}

// --- workload mix ------------------------------------------------------------

TEST(TpccMix, PaperMixesAddUpTo100) {
  EXPECT_EQ(Mix::standard().total(), 100u);
  EXPECT_EQ(Mix::read_dominated().total(), 100u);
}

TEST(TpccMix, SampleFollowsConfiguredShares) {
  Workload w(tiny_db(), Mix::read_dominated(), 1);
  int counts[5] = {};
  for (int i = 0; i < 20000; ++i) {
    counts[static_cast<int>(w.sample(0))]++;
  }
  EXPECT_NEAR(counts[static_cast<int>(TxType::kOrderStatus)] / 20000.0, 0.80, 0.02);
  EXPECT_NEAR(counts[static_cast<int>(TxType::kNewOrder)] / 20000.0, 0.08, 0.02);
}

// --- cross-backend concurrency ------------------------------------------------

class TpccBackendTest : public ::testing::TestWithParam<si::runtime::Backend> {};

TEST_P(TpccBackendTest, MixedRunPreservesDatabaseConsistency) {
  si::runtime::RuntimeConfig cfg;
  cfg.backend = GetParam();
  cfg.max_threads = 8;
  si::runtime::Runtime rt(cfg);

  Workload w(tiny_db(2), Mix::standard(), 4);
  auto stats = si::runtime::run_fixed_ops(rt, 3, 120, [&](int tid) { w.step(rt, tid); });

  EXPECT_EQ(stats.totals.commits, 360u);
  EXPECT_TRUE(w.db().check_ytd_consistency());
  EXPECT_TRUE(w.db().check_order_id_consistency());
}

TEST_P(TpccBackendTest, ConcurrentNewOrdersAllocateDistinctIds) {
  si::runtime::RuntimeConfig cfg;
  cfg.backend = GetParam();
  cfg.max_threads = 8;
  si::runtime::Runtime rt(cfg);

  Workload w(tiny_db(1), Mix::standard(), 4);
  constexpr int kThreads = 3, kOps = 60;
  std::int64_t next_before = 0;
  for (int d = 1; d <= kDistrictsPerWarehouse; ++d) {
    next_before += w.db().district(1, d).d_next_o_id;
  }
  si::runtime::run_fixed_ops(rt, kThreads, kOps,
                             [&](int tid) { w.run(rt, tid, TxType::kNewOrder); });
  std::int64_t next_after = 0;
  for (int d = 1; d <= kDistrictsPerWarehouse; ++d) {
    next_after += w.db().district(1, d).d_next_o_id;
  }
  // Every committed NEW-ORDER advanced exactly one district's d_next_o_id.
  EXPECT_EQ(next_after - next_before, kThreads * kOps);
  EXPECT_TRUE(w.db().check_order_id_consistency());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, TpccBackendTest,
    ::testing::Values(si::runtime::Backend::kHtm, si::runtime::Backend::kSiHtm,
                      si::runtime::Backend::kP8tm, si::runtime::Backend::kSilo),
    [](const auto& info) {
      return std::string(si::runtime::to_string(info.param)) == "SI-HTM"
                 ? "SiHtm"
                 : std::string(si::runtime::to_string(info.param));
    });

}  // namespace
