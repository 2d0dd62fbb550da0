#include "ctrl/streaming_cluster_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "cluster/dbi.h"
#include "cluster/minibatch_kmeans.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace flips::ctrl {

namespace {

// Control-plane instruments, registered once process-wide. submit()
// only bumps cached counters (relaxed atomics, no allocation); the
// reservoir/epoch gauges update on the rebuild path.
struct CtrlInstruments {
  obs::Counter* submissions;
  obs::Counter* rebuilds_lloyd;
  obs::Counter* rebuilds_minibatch;
  obs::Gauge* reservoir_points;
  obs::Gauge* epoch;
  obs::Gauge* clusters;
};

const CtrlInstruments& ctrl_instruments() {
  obs::Registry& r = obs::Registry::global();
  static const CtrlInstruments g{
      &r.counter("flips_ctrl_submissions_total"),
      &r.counter("flips_ctrl_rebuilds_total", {{"path", "lloyd"}}),
      &r.counter("flips_ctrl_rebuilds_total", {{"path", "minibatch"}}),
      &r.gauge("flips_ctrl_reservoir_points"),
      &r.gauge("flips_ctrl_epoch"),
      &r.gauge("flips_ctrl_clusters")};
  return g;
}

}  // namespace

StreamingClusterEngine::StreamingClusterEngine(
    const StreamingClusterConfig& config)
    : config_(config), epoch_(std::make_shared<const Epoch>()),
      drift_(config.drift) {
  config_.num_shards = std::max<std::size_t>(1, config_.num_shards);
  config_.shard_capacity = std::max<std::size_t>(1, config_.shard_capacity);
  shards_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->rng = common::Rng(common::mix_seed(config_.seed, 0x5A4D, s));
    shards_.push_back(std::move(shard));
  }
}

StreamingClusterEngine::Shard& StreamingClusterEngine::shard_for(
    std::size_t party_id) {
  // Finalized hash, not a plain modulus: sequential party ids must not
  // all land in ascending shards in lock-step (that would serialize
  // round-robin submitters on neighbouring locks).
  return *shards_[common::mix_seed(config_.seed, 0x51A2D, party_id) %
                  shards_.size()];
}

std::shared_ptr<const StreamingClusterEngine::Epoch>
StreamingClusterEngine::current_epoch() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  return epoch_;
}

std::size_t StreamingClusterEngine::nearest_centroid(
    const cluster::Point& point, const std::vector<cluster::Point>& cs) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < cs.size(); ++c) {
    const double d = cluster::squared_distance(point, cs[c]);
    if (d < best_d) {
      best_d = d;
      best = c;
    }
  }
  return best;
}

std::size_t StreamingClusterEngine::hash_spread(std::size_t party_id,
                                                std::size_t k) {
  return k == 0 ? 0 : common::mix_seed(0x5EED, party_id, 0) % k;
}

bool StreamingClusterEngine::submit(std::size_t party_id,
                                    cluster::Point point) {
  Shard& shard = shard_for(party_id);
  bool first_time = false;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.max_party = std::max(shard.max_party, party_id);
    auto it = shard.slot_of.find(party_id);
    if (it != shard.slot_of.end()) {
      // Re-submission: refresh the buffered point in place (if still
      // resident). The party is never duplicated.
      if (it->second != kNoSlot) shard.buffer[it->second] = point;
    } else {
      first_time = true;
      ++shard.seen;
      if (shard.buffer.size() < config_.shard_capacity) {
        shard.slot_of.emplace(party_id, shard.buffer.size());
        shard.party_at.push_back(party_id);
        shard.buffer.push_back(point);
      } else {
        // Reservoir sampling: the new point replaces a uniformly
        // chosen resident with probability capacity / seen, keeping
        // the buffer an unbiased sample of everything ingested.
        const std::size_t j = shard.rng.uniform_index(
            static_cast<std::size_t>(shard.seen));
        if (j < config_.shard_capacity) {
          shard.slot_of[shard.party_at[j]] = kNoSlot;
          shard.party_at[j] = party_id;
          shard.buffer[j] = point;
          shard.slot_of.emplace(party_id, j);
        } else {
          shard.slot_of.emplace(party_id, kNoSlot);
        }
      }
    }
  }
  ctrl_instruments().submissions->inc();
  if (first_time) parties_.fetch_add(1, std::memory_order_relaxed);

  // Pre-epoch bulk ingestion never touches the global membership lock
  // — only the shard lock above (rebuild() sizes the assignment table
  // from the shards' max ids).
  if (epoch_id_.load(std::memory_order_acquire) == 0) return first_time;

  std::shared_ptr<const Epoch> epoch;
  std::size_t assigned = kUnassigned;
  {
    // Epoch snapshot, assignment lookup and the late-joiner
    // nearest-centroid write happen under one lock so a concurrent
    // rebuild() can never interleave a stale epoch's cluster index
    // into the new epoch's table.
    std::lock_guard<std::mutex> lock(membership_mutex_);
    epoch = epoch_;
    if (epoch->id == 0) return first_time;
    if (assignment_.size() <= party_id) {
      assignment_.resize(party_id + 1, kUnassigned);
    }
    if (assignment_[party_id] == kUnassigned) {
      // Late joiner (or a party that slipped through a mid-rebuild
      // gather): incremental nearest-centroid assignment.
      assignment_[party_id] = nearest_centroid(point, epoch->centroids);
    }
    assigned = assignment_[party_id];
  }
  if (assigned < epoch->centroids.size()) {
    drift_.observe(assigned,
                   common::l1_distance(point, epoch->centroids[assigned]));
  }
  return first_time;
}

MembershipView StreamingClusterEngine::rebuild() {
  // Gather the reservoirs shard by shard (submissions to not-yet-read
  // shards keep flowing; they are picked up next epoch via the
  // old->new centroid remap below). Reservoir-evicted parties carry no
  // point; they are covered by sizing the assignment table to the max
  // ingested id and remapping/hash-spreading below.
  std::vector<std::pair<std::size_t, cluster::Point>> gathered;
  std::size_t max_party = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    for (std::size_t slot = 0; slot < shard->buffer.size(); ++slot) {
      gathered.emplace_back(shard->party_at[slot], shard->buffer[slot]);
    }
    if (!shard->slot_of.empty()) {
      max_party = std::max(max_party, shard->max_party);
    }
  }
  if (gathered.empty()) return view();
  // Unique party ids, so this is party-id order: the elbow and k-means++
  // seeding depend on point order, and arrival order must not reach them.
  std::sort(gathered.begin(), gathered.end());
  std::vector<cluster::Point> points(gathered.size());
  std::vector<std::size_t> owners(gathered.size());
  for (std::size_t i = 0; i < gathered.size(); ++i) {
    owners[i] = gathered[i].first;
    points[i] = std::move(gathered[i].second);
  }

  const std::shared_ptr<const Epoch> previous = current_epoch();
  const std::size_t n_parties = parties_.load(std::memory_order_relaxed);
  const bool lloyd_path = n_parties <= config_.lloyd_threshold;
  // Epoch 1 draws from Rng(seed) itself: below the Lloyd threshold with
  // k fixed it is then cluster::kmeans(points, {k, restarts}, Rng(seed)).
  common::Rng rng(previous->id == 0
                      ? config_.seed
                      : common::mix_seed(config_.seed, previous->id + 1,
                                         0x2EB));

  std::size_t k = config_.k_override;
  if (k == 0) {
    cluster::OptimalKConfig okc;
    okc.k_min = config_.k_min;
    okc.k_max = config_.k_max;
    okc.repeats = config_.elbow_repeats;
    okc.kmeans.restarts = config_.restarts;
    if (lloyd_path || points.size() <= config_.elbow_sample) {
      k = cluster::optimal_k_elbow(points, okc, rng).k;
    } else {
      // Elbow on a bounded sample: the k decision costs O(sample),
      // not O(parties).
      std::vector<cluster::Point> sample;
      sample.reserve(config_.elbow_sample);
      for (std::size_t i = 0; i < config_.elbow_sample; ++i) {
        sample.push_back(points[rng.uniform_index(points.size())]);
      }
      k = cluster::optimal_k_elbow(sample, okc, rng).k;
    }
  }
  k = std::max<std::size_t>(1, std::min(k, points.size()));

  cluster::KMeansResult result;
  if (lloyd_path) {
    cluster::KMeansConfig kc;
    kc.k = k;
    kc.restarts = config_.restarts;
    result = cluster::kmeans(points, kc, rng);
  } else {
    cluster::MiniBatchKMeansConfig mb;
    mb.k = k;
    mb.batch_size = config_.minibatch_size;
    mb.iterations = config_.minibatch_iterations;
    result = cluster::minibatch_kmeans(points, mb, rng);
  }
  k = result.centroids.size();

  // Per-cluster mean L1 residual of the buffered points — the drift
  // monitor's baseline for this epoch.
  std::vector<double> baseline(k, 0.0);
  std::vector<double> counts(k, 0.0);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t c = result.assignments[i];
    baseline[c] +=
        common::l1_distance(points[i], result.centroids[c]);
    counts[c] += 1.0;
  }
  for (std::size_t c = 0; c < k; ++c) {
    if (counts[c] > 0.0) baseline[c] /= counts[c];
  }

  // Old cluster -> nearest new centroid, so parties without a buffered
  // point (reservoir-evicted, or ingested into an already-gathered
  // shard mid-rebuild) carry over at cluster granularity.
  std::vector<std::size_t> old_to_new(previous->centroids.size(), 0);
  for (std::size_t c = 0; c < previous->centroids.size(); ++c) {
    old_to_new[c] = nearest_centroid(previous->centroids[c],
                                     result.centroids);
  }

  auto next = std::make_shared<Epoch>();
  next->id = previous->id + 1;
  next->k = k;
  next->centroids = std::move(result.centroids);

  MembershipView published;
  {
    std::lock_guard<std::mutex> lock(membership_mutex_);
    std::vector<std::size_t> fresh(
        std::max(assignment_.size(), max_party + 1), kUnassigned);
    for (std::size_t p = 0; p < assignment_.size(); ++p) {
      if (assignment_[p] < old_to_new.size()) {
        fresh[p] = old_to_new[assignment_[p]];
      }
    }
    for (std::size_t i = 0; i < owners.size(); ++i) {
      if (fresh.size() <= owners[i]) {
        fresh.resize(owners[i] + 1, kUnassigned);
      }
      fresh[owners[i]] = result.assignments[i];
    }
    for (std::size_t p = 0; p < fresh.size(); ++p) {
      if (fresh[p] == kUnassigned) fresh[p] = hash_spread(p, k);
    }
    assignment_ = std::move(fresh);
    epoch_ = next;
    last_path_ = lloyd_path ? "lloyd" : "minibatch";
    epoch_id_.store(next->id, std::memory_order_release);
    published.epoch = next->id;
    published.k = next->k;
    published.cluster_of = assignment_;
    published.centroids = next->centroids;
    // Reset before releasing the membership lock: a submit landing
    // between epoch publish and monitor reset would otherwise feed a
    // new-epoch residual into the old epoch's EMA and could leave a
    // spurious trigger for a concurrent maybe_rebuild(). (Lock order
    // membership -> drift is unique to this call site; observe()/
    // triggered() are never called with membership_mutex_ held.)
    drift_.reset(std::move(baseline));
  }
  const CtrlInstruments& ins = ctrl_instruments();
  (lloyd_path ? ins.rebuilds_lloyd : ins.rebuilds_minibatch)->inc();
  ins.reservoir_points->set(static_cast<double>(points.size()));
  ins.epoch->set(static_cast<double>(published.epoch));
  ins.clusters->set(static_cast<double>(published.k));
  return published;
}

bool StreamingClusterEngine::maybe_rebuild() {
  if (!drift_.triggered()) return false;
  rebuild();
  return true;
}

MembershipView StreamingClusterEngine::view() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  MembershipView out;
  out.epoch = epoch_->id;
  out.k = epoch_->k;
  if (out.epoch > 0) {
    out.cluster_of = assignment_;
    out.centroids = epoch_->centroids;
  }
  return out;
}

std::uint64_t StreamingClusterEngine::epoch() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  return epoch_->id;
}

std::size_t StreamingClusterEngine::parties() const {
  return parties_.load(std::memory_order_relaxed);
}

std::size_t StreamingClusterEngine::buffered_points() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    total += shard->buffer.size();
  }
  return total;
}

const char* StreamingClusterEngine::last_path() const {
  std::lock_guard<std::mutex> lock(membership_mutex_);
  return last_path_;
}

}  // namespace flips::ctrl
