// TPC-C edge cases: remote payments, by-last-name selection paths, ring
// wrap-around, history cursor behaviour, and delivery backlog accounting.
#include <gtest/gtest.h>

#include <cstring>

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

DbConfig two_wh() {
  DbConfig cfg;
  cfg.warehouses = 2;
  cfg.items = 100;
  cfg.customers_per_district = 30;
  cfg.initial_orders_per_district = 20;
  cfg.order_ring_bits = 6;  // 64-order ring: exercises wrap-around fast
  cfg.history_ring_bits = 6;
  return cfg;
}

TEST(TpccRemote, PaymentAtRemoteWarehouseUpdatesBothSides) {
  Db db(two_wh());
  DirectTx tx;
  PaymentInput in;
  in.w_id = 1;       // payment taken at warehouse 1...
  in.d_id = 3;
  in.c_w_id = 2;     // ...for a customer of warehouse 2
  in.c_d_id = 5;
  in.c_id = 7;
  in.amount = 999;
  const Money w1_before = db.warehouse(1).w_ytd;
  const Money c_before = db.customer(2, 5, 7).c_balance;
  payment(tx, db, in, 1);
  EXPECT_EQ(db.warehouse(1).w_ytd, w1_before + 999);  // home warehouse ytd
  EXPECT_EQ(db.customer(2, 5, 7).c_balance, c_before - 999);
  EXPECT_TRUE(db.check_ytd_consistency());
}

TEST(TpccRemote, NewOrderRemoteSupplyBumpsRemoteCnt) {
  Db db(two_wh());
  DirectTx tx;
  NewOrderInput in;
  in.w_id = 1;
  in.d_id = 1;
  in.c_id = 1;
  in.ol_cnt = 2;
  in.lines[0] = {.i_id = 5, .supply_w_id = 1, .quantity = 1};  // local
  in.lines[1] = {.i_id = 9, .supply_w_id = 2, .quantity = 1};  // remote
  new_order(tx, db, in, 1);
  EXPECT_EQ(db.stock(1, 5).s_remote_cnt, 0);
  EXPECT_EQ(db.stock(2, 9).s_remote_cnt, 1);
  const std::int64_t o_id = db.district(1, 1).d_next_o_id - 1;
  EXPECT_EQ(db.order_slot(1, 1, o_id).o_all_local, 0);
}

TEST(TpccByName, PaymentSelectsMedianOfGroup) {
  // With 30 customers all names are sequential (c_id - 1), so each group has
  // exactly one member and the median is that member.
  Db db(two_wh());
  DirectTx tx;
  PaymentInput in;
  in.w_id = in.c_w_id = 1;
  in.d_id = in.c_d_id = 1;
  in.c_id = 0;  // by last name
  in.c_last_num = 12;
  in.amount = 100;
  const Money before = db.customer(1, 1, 13).c_balance;
  payment(tx, db, in, 1);
  EXPECT_EQ(db.customer(1, 1, 13).c_balance, before - 100);
}

TEST(TpccByName, OrderStatusByNameFindsLatestOrder) {
  Db db(two_wh());
  DirectTx tx;
  NewOrderInput in;
  in.w_id = 1;
  in.d_id = 2;
  in.c_id = 4;  // last-name number 3
  in.ol_cnt = 5;
  for (int l = 0; l < in.ol_cnt; ++l) {
    in.lines[l] = {.i_id = l + 1, .supply_w_id = 1, .quantity = 1};
  }
  const auto r = new_order(tx, db, in, 9);
  const auto os = order_status(tx, db, 1, 2, 0, /*c_last_num=*/3);
  EXPECT_EQ(os.c_id, 4);
  EXPECT_EQ(os.o_id, r.o_id);
  EXPECT_EQ(os.lines, 5);
}

TEST(TpccRing, OrderRingWrapsWithoutCorruption) {
  Db db(two_wh());  // ring holds 64 orders; issue 200 to wrap three times
  DirectTx tx;
  si::util::Xoshiro256 rng(3);
  for (int i = 0; i < 200; ++i) {
    NewOrderInput in = make_new_order_input(db, 1, rng);
    in.d_id = 1;
    new_order(tx, db, in, i);
    // Drain aggressively so the queue never outgrows the ring window.
    delivery_district(tx, db, 1, in.d_id, 1, i);
    delivery_district(tx, db, 1, 1, 1, i);
  }
  EXPECT_TRUE(db.check_order_id_consistency());
  const std::int64_t next = db.district(1, 1).d_next_o_id;
  EXPECT_EQ(next, 20 + 200 + 1);
  // The most recent ring window carries exactly the latest o_ids.
  for (std::int64_t o = next - db.order_ring_capacity(); o < next; ++o) {
    if (o >= 1) {
      EXPECT_EQ(db.order_slot(1, 1, o).o_id, o);
    }
  }
}

TEST(TpccRing, HistoryCursorWraps) {
  Db db(two_wh());  // history ring = 64 entries
  DirectTx tx;
  PaymentInput in;
  in.w_id = in.c_w_id = 1;
  in.d_id = in.c_d_id = 1;
  in.c_id = 1;
  for (int i = 0; i < 100; ++i) {
    in.amount = i + 1;
    payment(tx, db, in, i);
  }
  EXPECT_EQ(db.history_cursor(1).next, 100);
  // Slot for position 99 (= 99 & 63 = 35) holds the 100th payment.
  EXPECT_EQ(db.history_slot(1, 99).h_amount, 100);
}

TEST(TpccBacklog, QueueLengthTracksNewOrdersMinusDeliveries) {
  Db db(two_wh());
  DirectTx tx;
  const std::int64_t initial = db.total_new_order_queue_length();
  si::util::Xoshiro256 rng(8);
  int added = 0, removed = 0;
  for (int i = 0; i < 30; ++i) {
    NewOrderInput in = make_new_order_input(db, 1, rng);
    new_order(tx, db, in, i);
    ++added;
  }
  for (int d = 1; d <= kDistrictsPerWarehouse; ++d) {
    if (delivery_district(tx, db, 1, d, 2, 99) != 0) ++removed;
  }
  EXPECT_EQ(db.total_new_order_queue_length(), initial + added - removed);
}

TEST(TpccWorkload, RunSpecificTypesOnSiHtm) {
  si::runtime::RuntimeConfig cfg;
  cfg.backend = si::runtime::Backend::kSiHtm;
  cfg.max_threads = 4;
  si::runtime::Runtime rt(cfg);
  Workload w(two_wh(), Mix::standard(), 2);

  si::runtime::run_fixed_ops(rt, 2, 10, [&](int tid) {
    w.run(rt, tid, TxType::kNewOrder);
    w.run(rt, tid, TxType::kPayment);
    w.run(rt, tid, TxType::kOrderStatus);
    w.run(rt, tid, TxType::kDelivery);
    w.run(rt, tid, TxType::kStockLevel);
  });
  EXPECT_TRUE(w.db().check_ytd_consistency());
  EXPECT_TRUE(w.db().check_order_id_consistency());
  std::uint64_t commits = 0;
  for (const auto& st : rt.thread_stats()) commits += st.commits;
  EXPECT_EQ(commits, 2u * 10u * 5u);
}

TEST(TpccWorkload, TerminalsSpreadAcrossWarehouses) {
  Workload w(two_wh(), Mix::standard(), 4);
  // Terminals home-warehouse round-robin: tids 0,2 -> w1; 1,3 -> w2. We can
  // observe it through NEW-ORDER inputs hitting the right warehouse.
  si::runtime::RuntimeConfig cfg;
  cfg.backend = si::runtime::Backend::kSilo;
  cfg.max_threads = 4;
  si::runtime::Runtime rt(cfg);
  const std::int64_t w1_before = w.db().district(1, 1).d_next_o_id;
  (void)w1_before;
  si::runtime::run_fixed_ops(rt, 4, 5, [&](int tid) {
    w.run(rt, tid, TxType::kNewOrder);
  });
  std::int64_t issued_w1 = 0, issued_w2 = 0;
  for (int d = 1; d <= kDistrictsPerWarehouse; ++d) {
    issued_w1 += w.db().district(1, d).d_next_o_id - 21;
    issued_w2 += w.db().district(2, d).d_next_o_id - 21;
  }
  EXPECT_EQ(issued_w1, 10);  // two terminals x five orders each
  EXPECT_EQ(issued_w2, 10);
}

}  // namespace
