#include "replication/follower.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "server/protocol.h"
#include "server/wire_fact.h"
#include "storage/wal.h"
#include "util/logging.h"

namespace kb {
namespace replication {

namespace {

constexpr char kPosKeyPrefix[] = "!repl.pos.";
constexpr char kEpochKey[] = "!repl.epoch";

std::string PosKey(uint32_t shard) {
  return kPosKeyPrefix + std::to_string(shard);
}

}  // namespace

StatusOr<std::unique_ptr<FollowerReplica>> FollowerReplica::Open(
    const Options& options, core::KnowledgeBase* kb,
    server::KbServer* server) {
  storage::ShardedStoreOptions store_options;
  store_options.num_shards = options.num_shards;
  store_options.store.env = options.env;
  auto store = storage::ShardedKVStore::Recover(store_options,
                                                options.data_dir);
  if (!store.ok()) return store.status();

  auto replica = std::unique_ptr<FollowerReplica>(new FollowerReplica());
  replica->options_ = options;
  replica->kb_ = kb;
  replica->server_ = server;
  replica->store_ = std::move(*store);

  // Persisted replay positions (per *leader* shard — independent of
  // this store's own shard layout). A missing key means "from the
  // beginning"; after a crash the keys may understate what the store
  // holds, which idempotent re-apply absorbs.
  Status s = replica->store_->Scan(
      Slice(kPosKeyPrefix), Slice("!repl.pos/"),  // '/' is '.' + 1
      [&](const Slice& key, const Slice& value) {
        unsigned shard = 0;
        unsigned long long gen = 0, offset = 0;
        if (::sscanf(key.ToString().c_str(), "!repl.pos.%u", &shard) == 1 &&
            ::sscanf(value.ToString().c_str(), "%llu %llu", &gen,
                     &offset) == 2) {
          if (replica->shards_.size() <= shard) {
            replica->shards_.resize(shard + 1);
          }
          replica->shards_[shard].gen = gen;
          replica->shards_[shard].parsed_offset = offset;
        }
        return true;
      });
  if (!s.ok()) return s;
  std::string epoch_value;
  if (replica->store_->Get(Slice(kEpochKey), &epoch_value).ok()) {
    replica->applied_epoch_.store(
        ::strtoull(epoch_value.c_str(), nullptr, 10),
        std::memory_order_release);
  }

  // Rebuild the KB's replicated overlay from the durable copy. The
  // base content is already in `kb`; asserts of already-present facts
  // just merge metadata.
  uint64_t rebuilt = 0;
  s = replica->store_->Scan(
      Slice(kFactKeyPrefix), Slice("f;"),
      [&](const Slice& key, const Slice& value) {
        uint64_t seq = 0;
        if (!ParseFactKey(key, &seq)) return true;
        server::WireFact fact;
        if (!DecodeFactRecord(value, &fact).ok()) return true;
        server::AssertWireFact(fact, kb);
        ++rebuilt;
        return true;
      });
  if (!s.ok()) return s;
  if (rebuilt > 0) {
    KB_LOG(Info) << "follower rebuilt " << rebuilt
                 << " replicated facts from local store";
  }
  return replica;
}

FollowerReplica::~FollowerReplica() { Stop(); }

Status FollowerReplica::Start() {
  if (started_) return Status::OK();
  started_ = true;
  stopping_.store(false);
  session_ = std::thread([this] { SessionLoop(); });
  return Status::OK();
}

void FollowerReplica::Stop() {
  if (!started_) return;
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  stop_cv_.notify_all();
  if (session_.joinable()) session_.join();
  started_ = false;
}

void FollowerReplica::SessionLoop() {
  while (!stopping_.load()) {
    Status s = RunSession();
    connected_.store(false, std::memory_order_release);
    if (stopping_.load()) return;
    if (!s.ok()) {
      KB_LOG(Info) << "repl session lost, reconnecting: " << s.ToString();
    }
    std::unique_lock<std::mutex> lock(mu_);
    stop_cv_.wait_for(lock,
                      std::chrono::duration<double, std::milli>(
                          options_.reconnect_backoff_ms),
                      [this] { return stopping_.load(); });
  }
}

Status FollowerReplica::RunSession() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError("socket: " + std::string(::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.leader_repl_port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status s = Status::IOError("connect: " + std::string(::strerror(errno)));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  {
    std::lock_guard<std::mutex> lock(mu_);
    fd_ = fd;
  }
  auto cleanup = [this, fd] {
    std::lock_guard<std::mutex> lock(mu_);
    ::close(fd);
    fd_ = -1;
  };

  Handshake handshake;
  handshake.applied_epoch = applied_epoch();
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardPosition position;
    position.shard = static_cast<uint32_t>(i);
    position.gen = shards_[i].gen;
    position.offset = shards_[i].parsed_offset;
    handshake.positions.push_back(position);
  }
  Status status = server::WriteFrame(fd, EncodeHandshake(handshake));
  std::string payload;
  if (status.ok()) status = server::ReadFrame(fd, &payload);
  Manifest manifest;
  if (status.ok()) status = DecodeManifest(Slice(payload), &manifest);
  if (!status.ok()) {
    cleanup();
    return status;
  }
  if (shards_.size() < manifest.num_shards) {
    shards_.resize(manifest.num_shards);
  }
  // Reconnect drops buffered partial tails: the leader re-ships from
  // our *parsed* offsets, so whatever was buffered arrives again.
  for (ShardState& shard : shards_) shard.buffer.clear();
  connected_.store(true, std::memory_order_release);

  while (!stopping_.load()) {
    status = server::ReadFrame(fd, &payload);
    if (!status.ok()) break;
    DataRound round;
    status = DecodeDataRound(Slice(payload), &round);
    if (!status.ok()) break;
    for (const WalChunk& chunk : round.chunks) {
      status = ApplyChunk(chunk);
      if (!status.ok()) break;
    }
    if (!status.ok()) break;
    const bool advance =
        round.complete &&
        round.epoch > applied_epoch_.load(std::memory_order_acquire);
    status = PersistPositions(advance, round.epoch);
    if (!status.ok()) break;
    if (advance) {
      // Persist-then-publish: a crash in between understates the
      // epoch, and the leader re-ships a suffix we already hold.
      applied_epoch_.store(round.epoch, std::memory_order_release);
    }
    Ack ack;
    ack.applied_epoch = applied_epoch();
    status = server::WriteFrame(fd, EncodeAck(ack));
    if (!status.ok()) break;
  }
  cleanup();
  return status;
}

Status FollowerReplica::ApplyChunk(const WalChunk& chunk) {
  if (chunk.shard >= shards_.size()) {
    return Status::InvalidArgument("chunk for unknown shard " +
                                   std::to_string(chunk.shard));
  }
  ShardState& state = shards_[chunk.shard];
  if (chunk.gen < state.gen) return Status::OK();  // stale duplicate
  if (chunk.gen > state.gen) {
    // New generation. Any unparsed tail of the previous one was a
    // record the leader itself never committed (torn by a crash, then
    // quarantined/truncated on its recovery) — drop it.
    state.gen = chunk.gen;
    state.parsed_offset = 0;
    state.buffer.clear();
  }
  const uint64_t expected = state.parsed_offset + state.buffer.size();
  if (chunk.offset > expected) {
    return Status::Internal(
        "gap in shipped wal: got offset " + std::to_string(chunk.offset) +
        ", expected " + std::to_string(expected));
  }
  if (chunk.offset < expected) {
    // Overlap (the leader restarted its session from our persisted,
    // possibly stale, positions): skip what we already buffered.
    const uint64_t skip = expected - chunk.offset;
    if (skip >= chunk.data.size()) return Status::OK();
    state.buffer.append(chunk.data, static_cast<size_t>(skip),
                        std::string::npos);
  } else {
    state.buffer.append(chunk.data);
  }

  // Parse the complete-record prefix; a partial tail stays buffered
  // until the next chunk extends it.
  uint64_t consumed = 0;
  bool corrupt = false;
  std::vector<std::pair<std::string, std::string>> records;
  Status s = storage::ParseWalChunk(
      Slice(state.buffer), &consumed,
      [&](storage::EntryType type, const Slice& key, const Slice& value) {
        if (type == storage::EntryType::kPut) {
          records.emplace_back(key.ToString(), value.ToString());
        }
      },
      nullptr, &corrupt);
  if (!s.ok()) return s;
  if (corrupt) {
    // A byte-complete record failed its checksum: these bytes are
    // damaged, not late. Fail the session; the reconnect re-fetches
    // the range from the leader's (intact) file.
    return Status::Corruption("corrupt shipped wal record in shard " +
                              std::to_string(chunk.shard) + " gen " +
                              std::to_string(chunk.gen));
  }
  for (const auto& [key, value] : records) {
    Status applied = ApplyRecord(Slice(key), Slice(value));
    if (!applied.ok()) return applied;
  }
  state.parsed_offset += consumed;
  state.buffer.erase(0, static_cast<size_t>(consumed));
  return Status::OK();
}

Status FollowerReplica::ApplyRecord(const Slice& key, const Slice& value) {
  uint64_t seq = 0;
  if (!ParseFactKey(key, &seq)) return Status::OK();  // not a fact record
  server::WireFact fact;
  Status s = DecodeFactRecord(value, &fact);
  if (!s.ok()) return s;
  // Durable copy first, KB second: a crash in between re-applies the
  // record on restart (both sides idempotent).
  s = store_->Put(key, value);
  if (!s.ok()) return s;
  auto assert_fact = [&] { server::AssertWireFact(fact, kb_); };
  if (server_ != nullptr) {
    server_->WithWriteLock(assert_fact);
  } else {
    assert_fact();
  }
  applied_records_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status FollowerReplica::PersistPositions(bool with_epoch, uint64_t epoch) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    const ShardState& state = shards_[i];
    std::string value = std::to_string(state.gen) + " " +
                        std::to_string(state.parsed_offset);
    Status s = store_->Put(PosKey(static_cast<uint32_t>(i)), value);
    if (!s.ok()) return s;
  }
  if (with_epoch) {
    return store_->Put(Slice(kEpochKey), std::to_string(epoch));
  }
  return Status::OK();
}

}  // namespace replication
}  // namespace kb
