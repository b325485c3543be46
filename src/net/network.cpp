#include "net/network.h"

#include <algorithm>

#include "util/check.h"

namespace fg::net {

int64_t NetStats::max_node_sent() const {
  int64_t best = 0;
  for (const auto& [node, count] : sent_by) best = std::max(best, count);
  return best;
}

void NetStats::reset() {
  messages = 0;
  words = 0;
  rounds = 0;
  max_message_words = 0;
  sent_by.clear();
  max_node_round_words = 0;
}

void Network::set_policy(const DeliveryPolicy& policy) {
  FG_CHECK(policy.max_extra_delay >= 0);
  FG_CHECK(policy.drop_one_in >= 0);
  FG_CHECK(policy.dup_one_in >= 0);
  policy_ = policy;
  rng_ = Rng(policy.seed);
}

void Network::send(NodeId from, NodeId to, std::any payload, int words) {
  FG_CHECK(words >= 1);
  ++stats_.messages;
  stats_.words += words;
  stats_.max_message_words = std::max(stats_.max_message_words, words);
  ++stats_.sent_by[from];
  int64_t& round_words = round_words_by_node_[from];
  round_words += words;
  stats_.max_node_round_words = std::max(stats_.max_node_round_words, round_words);
  // The drop decision comes before any delay draw, so enabling delays does
  // not reshuffle which messages an identically-seeded policy drops.
  if (policy_.drop_one_in > 0 &&
      rng_.next_below(static_cast<uint64_t>(policy_.drop_one_in)) == 0)
    return;
  int copies = 1;
  if (policy_.dup_one_in > 0 &&
      rng_.next_below(static_cast<uint64_t>(policy_.dup_one_in)) == 0)
    copies = 2;
  for (int c = copies; c > 0; --c) {
    int delay = 1;
    if (policy_.max_extra_delay > 0)
      delay += static_cast<int>(rng_.next_below(
          static_cast<uint64_t>(policy_.max_extra_delay) + 1));
    if (c > 1)
      queue_.push_back(Pending{from, to, payload, delay});
    else
      queue_.push_back(Pending{from, to, std::move(payload), delay});
  }
}

int Network::run_to_quiescence(int max_rounds) {
  FG_CHECK_MSG(handler_, "network has no handler");
  int rounds = 0;
  while (!queue_.empty()) {
    FG_CHECK_MSG(rounds < max_rounds, "protocol did not quiesce");
    ++rounds;
    // Split the queue into this round's deliveries and the still-delayed
    // remainder; handler sends land in the queue with their own delays.
    std::vector<Pending> batch;
    std::vector<Pending> later;
    batch.reserve(queue_.size());
    for (Pending& p : queue_) {
      if (--p.delay <= 0)
        batch.push_back(std::move(p));
      else
        later.push_back(std::move(p));
    }
    queue_ = std::move(later);
    if (policy_.shuffle) rng_.shuffle(batch);
    round_words_by_node_.clear();  // sends below belong to this round
    for (const Pending& p : batch) handler_(p.to, p.from, p.payload);
  }
  stats_.rounds += rounds;
  round_words_by_node_.clear();
  return rounds;
}

}  // namespace fg::net
