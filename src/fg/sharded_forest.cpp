#include "fg/sharded_forest.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "util/check.h"

namespace fg {

// ---------------------------------------------------------------------------
// CommitPool.

CommitPool::CommitPool(int background) {
  FG_CHECK_MSG(background >= 0, "negative pool size");
  threads_.reserve(static_cast<size_t>(background));
  for (int i = 0; i < background; ++i) threads_.emplace_back([this] { worker(); });
  // Startup barrier: don't return until every worker is parked on the
  // condition variable. Without it the threads' first-ever scheduling
  // lands inside whatever the caller times next — on a single-core box
  // that bills thread startup to the first commit.
  std::unique_lock<std::mutex> lock(mutex_);
  parked_cv_.wait(lock, [&] { return parked_ == background; });
}

CommitPool::~CommitPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void CommitPool::dispatch(std::function<void()> job) {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = std::move(job);
    ++generation_;
  }
  wake_.notify_all();
}

void CommitPool::worker() {
  uint64_t seen = 0;
  bool first = true;
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (first) {
        first = false;
        ++parked_;
        parked_cv_.notify_one();
      }
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      // A worker that slept through several generations runs only the
      // newest job: every earlier dispatch already met its completion
      // condition before the next one was issued, so skipped jobs have no
      // work left by construction.
      seen = generation_;
      job = job_;
    }
    job();
  }
}

// ---------------------------------------------------------------------------
// ShardedForest.

void ShardedForest::set_workers(int n) {
  FG_CHECK_MSG(n >= 1, "worker count must be at least 1");
  workers_ = n;
  rebuild_pool();
}

void ShardedForest::set_commit_workers(int n) {
  FG_CHECK_MSG(n >= 1, "worker count must be at least 1");
  commit_workers_ = n;
  rebuild_pool();
}

void ShardedForest::set_break_workers(int n) {
  FG_CHECK_MSG(n >= 1, "worker count must be at least 1");
  break_workers_ = n;
  rebuild_pool();
}

void ShardedForest::rebuild_pool() {
  // One pool serves the plan, break and merge fan-outs; size it for the
  // largest knob. Don't build a pool the fans_out gate can never use: on a
  // box with a single hardware thread, merely having extra threads
  // switches the allocator out of its single-threaded fast path and slows
  // the (alloc-heavy) commit — with zero chance of a fan-out win.
  // Contract C4 makes the structure identical either way.
  static const unsigned hw_threads = std::thread::hardware_concurrency();
  const int n = std::max({workers_, commit_workers_, break_workers_});
  const int background = (n > 1 && hw_threads != 1) ? n - 1 : 0;
  if (background == pool_background_ && (commit_pool_ != nullptr) == (background > 0))
    return;
  pool_background_ = background;
  commit_pool_ = background > 0 ? std::make_unique<CommitPool>(background) : nullptr;
}

void ShardedForest::for_each_region(size_t regions, int knob,
                                    const std::function<void(size_t)>& fn) const {
  if (!fans_out(knob, regions)) {
    for (size_t r = 0; r < regions; ++r) fn(r);
    return;
  }
  // Drain-a-counter fan-out: every participant, the caller included,
  // pulls the next unclaimed region off `next`. The counters live in a
  // shared_ptr context owned by the job closure: a worker that wakes after
  // this call returned finds `next` exhausted and touches nothing else —
  // never `fn`, which lives on the caller's stack — so the caller waits
  // only for `done` to reach the region count, never for threads to park.
  // `done` release/acquire pairs every region's writes with whatever the
  // caller reads next (the stitch, finalize_plan).
  struct Ctx {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };
  auto ctx = std::make_shared<Ctx>();
  const std::function<void(size_t)>* fn_p = &fn;
  auto work = [ctx, fn_p, regions] {
    for (size_t r = ctx->next.fetch_add(1); r < regions; r = ctx->next.fetch_add(1)) {
      (*fn_p)(r);
      ctx->done.fetch_add(1, std::memory_order_release);
    }
  };
  commit_pool_->dispatch(work);
  work();  // the caller participates too
  while (ctx->done.load(std::memory_order_acquire) < regions) std::this_thread::yield();
}

core::RepairPlan ShardedForest::plan(const core::StructuralCore& core,
                                     std::span<const NodeId> victims) const {
  core::DeletionAnalysis analysis = core.analyze_deletion(victims);
  core::RepairPlan plan;
  plan.regions.resize(analysis.seeds.size());
  // plan_region only reads the core and writes its own pre-sized slot, so
  // the result is the sequential plan whoever plans which region.
  for_each_region(plan.regions.size(), workers_, [&](size_t r) {
    core.plan_region(analysis, static_cast<int>(r), &plan.regions[r]);
  });

  core.finalize_plan(analysis, &plan);
  return plan;
}

std::vector<VNodeId> ShardedForest::execute(core::StructuralCore& core,
                                            const core::RepairPlan& plan) {
  const size_t regions = plan.regions.size();
  // Whether the regions break and merge inline or on the pool is a pure
  // scheduling choice: break_region and merge_region mutate only
  // region-local forest state inside the plan's arena reservation, and the
  // two stitches replay every shared-state write in region id order
  // (contract C4; docs/CONCURRENCY.md, the break-effects and reservation
  // arguments). tests/break_pool_test.cpp and arena_reservation_test.cpp
  // drive CommitPool and the primitives directly, so both fan-outs stay
  // TSan-covered even on machines where fans_out keeps the engine inline.
  //
  // Grow-only scratch, reused wave to wave: a smaller wave must not
  // destroy the trailing slots' capacity, so a steady-state commit
  // allocates no per-region bookkeeping (each primitive resets its slot).
  if (break_effects_scratch_.size() < regions) break_effects_scratch_.resize(regions);
  if (effects_scratch_.size() < regions) effects_scratch_.resize(regions);
  std::vector<std::vector<VNodeId>> pieces(regions);
  core.begin_break(plan);
  for_each_region(regions, break_workers_, [&](size_t r) {
    pieces[r] = core.break_region(plan.regions[r], &break_effects_scratch_[r]);
  });
  for (size_t r = 0; r < regions; ++r)
    core.apply_break_effects(plan.regions[r], break_effects_scratch_[r]);
  core.finish_break(plan);

  for_each_region(regions, commit_workers_, [&](size_t r) {
    core.merge_region(plan.regions[r], std::move(pieces[r]), &effects_scratch_[r]);
  });
  std::vector<VNodeId> roots(regions, kNoVNode);
  for (size_t r = 0; r < regions; ++r) roots[r] = core.apply_merge_effects(effects_scratch_[r]);
  core.check_reservation_settled(plan);
  last_assignment_ = plan.victim_region;
  // The wave is fully settled: let the snapshot layer read the touched
  // state's final values and emit the wave's delta record
  // (core::DeltaRecorder contract).
  if (core::DeltaRecorder* rec = core.delta_recorder()) rec->on_wave_committed(core, plan);
  return roots;
}

}  // namespace fg
