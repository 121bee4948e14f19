#include "store/measurement_store.hpp"

#include <algorithm>
#include <charconv>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>

#include "common/check.hpp"
#include "common/error.hpp"
#include "common/fingerprint.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"

namespace ecotune::store {
namespace {

constexpr std::string_view kStoreFileName = "measurements.jsonl";

/// Parses the fixed-width hex fingerprint written by Fingerprint::to_hex.
std::optional<std::uint64_t> parse_hex_fingerprint(const std::string& text) {
  if (text.empty() || text.size() > 16) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size())
    return std::nullopt;
  return value;
}

/// The on-disk line of one entry: the bytes of
/// Json{{"fp", hex}, {"payload", payload}, {"task", task}}.dump(-1) + '\n'
/// (keys in Json's sorted order), built without copying the payload into a
/// temporary document.
std::string encode_line(const std::string& task, std::uint64_t fingerprint,
                        const Json& payload) {
  std::string line = "{\"fp\":\"" + Fingerprint::to_hex(fingerprint) +
                     "\",\"payload\":";
  line += payload.dump(-1);
  line += ",\"task\":";
  line += Json(task).dump(-1);
  line += "}\n";
  return line;
}

/// One line of measurements.jsonl after the parallel parse. A blank line
/// leaves both `payload` and `error` empty.
struct ParsedLine {
  std::string task;
  std::uint64_t fingerprint = 0;
  std::shared_ptr<const Json> payload;
  std::optional<std::string> error;  ///< why the line was rejected
};

ParsedLine parse_line(std::string_view line) {
  ParsedLine out;
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  if (line.empty()) return out;
  try {
    Json entry = Json::parse(line);
    out.task = entry.at("task").as_string();
    const auto fp = parse_hex_fingerprint(entry.at("fp").as_string());
    ensure(fp.has_value(), "bad fingerprint");
    ensure(!out.task.empty(), "empty task");
    out.fingerprint = *fp;
    out.payload = std::make_shared<const Json>(std::move(entry.at("payload")));
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace

StoreMode parse_store_mode(std::string_view text) {
  if (text == "off") return StoreMode::kOff;
  if (text == "ro") return StoreMode::kReadOnly;
  if (text == "rw") return StoreMode::kReadWrite;
  throw Error("parse_store_mode: expected off|ro|rw, got '" +
              std::string(text) + "'");
}

std::string_view to_string(StoreMode mode) {
  switch (mode) {
    case StoreMode::kOff:
      return "off";
    case StoreMode::kReadOnly:
      return "ro";
    case StoreMode::kReadWrite:
      return "rw";
  }
  return "off";
}

StoreMode resolve_store_mode(const std::string& mode_text,
                             const std::string& cache_dir) {
  const StoreMode mode = mode_text.empty()
                             ? (cache_dir.empty() ? StoreMode::kOff
                                                  : StoreMode::kReadWrite)
                             : parse_store_mode(mode_text);
  ensure(mode == StoreMode::kOff || !cache_dir.empty(),
         "--cache-mode " + std::string(to_string(mode)) +
             " requires --cache-dir");
  return mode;
}

MeasurementStore::MeasurementStore(const std::string& cache_dir,
                                   StoreMode mode) {
  open(cache_dir, mode);
}

void MeasurementStore::open(const std::string& cache_dir, StoreMode mode,
                            std::string scope, std::size_t shards, int jobs) {
  // open() runs before any concurrent use (drivers open during CLI setup),
  // so the one-time setup below needs no locking; load_file still routes
  // entries through the shard locks to keep the analysis contract uniform.
  ensure(!enabled(), "MeasurementStore::open: already open");
  if (mode == StoreMode::kOff) return;
  scope_ = std::move(scope);
  ensure(!cache_dir.empty(),
         "MeasurementStore::open: cache directory required for mode '" +
             std::string(to_string(mode)) + "'");

  if (shards == 0) shards = kDefaultShardCount;
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Shard>());

  namespace fs = std::filesystem;
  if (mode == StoreMode::kReadWrite) {
    std::error_code ec;
    fs::create_directories(cache_dir, ec);
    ensure(!ec, "MeasurementStore::open: cannot create cache directory '" +
                    cache_dir + "': " + ec.message());
  }

  dir_ = cache_dir;
  file_path_ = (fs::path(cache_dir) / kStoreFileName).string();
  if (fs::exists(file_path_)) load_file(file_path_, jobs);

  if (mode == StoreMode::kReadWrite) {
    // Unbuffered stream + one write() per entry line (below): with the OS
    // in append mode, concurrent writers sharing one cache directory
    // cannot interleave partial lines inside each other's entries.
    const MutexLock lock(append_mutex_);
    appender_.rdbuf()->pubsetbuf(nullptr, 0);
    appender_.open(file_path_, std::ios::app);
    ensure(appender_.good(),
           "MeasurementStore::open: cannot append to '" + file_path_ + "'");
  }
  mode_ = mode;
}

void MeasurementStore::load_file(const std::string& path, int jobs) {
  std::string text;
  {
    std::ifstream is(path, std::ios::binary);
    ensure(is.good(), "MeasurementStore: cannot read '" + path + "'");
    std::ostringstream buf;
    buf << is.rdbuf();
    text = std::move(buf).str();
  }
  // std::getline's split: every '\n' ends a line, and a last line without
  // one still counts.
  std::vector<std::string_view> lines;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    lines.push_back(std::string_view(text).substr(pos, end - pos));
    pos = end + 1;
  }
  auto parsed = parallel_map_ordered(
      lines.size(), [&](std::size_t i) { return parse_line(lines[i]); },
      jobs);
  // Merged in file order on this thread: later duplicates of a task win and
  // rejections are counted and logged exactly as a serial read would.
  for (std::size_t i = 0; i < parsed.size(); ++i) {
    ParsedLine& line = parsed[i];
    if (line.error) {
      // Loud rejection: a corrupt entry must never silently answer a
      // lookup, and the operator must learn the cache is damaged.
      {
        const MutexLock lock(append_mutex_);
        ++rejected_;
      }
      log::error("store") << "rejecting corrupt cache entry " << path << ':'
                          << i + 1 << " (" << *line.error << ')';
      continue;
    }
    if (!line.payload) continue;  // blank line
    Shard& shard = shard_of(line.task);
    const MutexLock lock(shard.mutex_);
    shard.insert_locked(std::move(line.task), line.fingerprint,
                        std::move(line.payload));
  }
}

std::string MeasurementStore::scoped(const std::string& task) const {
  return scope_.empty() ? task : scope_ + "/" + task;
}

MeasurementStore::Shard& MeasurementStore::shard_of(
    const std::string& task) const {
  ECOTUNE_DCHECK(!shards_.empty(), "MeasurementStore: no shards (not open)");
  return *shards_[fnv1a(task) % shards_.size()];
}

std::shared_ptr<const Json> MeasurementStore::lookup(
    const MeasurementKey& key) {
  if (mode_ == StoreMode::kOff) return nullptr;
  // Fingerprint precondition: a default-constructed key (digest 0) means
  // the caller forgot to hash the measurement context. Such a key could
  // never invalidate stale entries, silently breaking warm-restart
  // byte-identity; every real Fingerprint digest is FNV-mixed and is never
  // 0 in practice.
  ECOTUNE_DCHECK(key.fingerprint != 0,
                 "MeasurementStore::lookup: key carries no fingerprint");
  ECOTUNE_DCHECK(!key.task.empty(),
                 "MeasurementStore::lookup: empty task key");
  const std::string task = scoped(key.task);
  Shard& shard = shard_of(task);
  const MutexLock lock(shard.mutex_);
  return shard.lookup_locked(task, key.fingerprint);
}

std::shared_ptr<const Json> MeasurementStore::Shard::lookup_locked(
    const std::string& task, std::uint64_t fingerprint) {
  auto it = entries_.find(task);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second.fingerprint != fingerprint) {
    // The context behind this task changed (different benchmark revision,
    // seed, node state, options...): the stored value is stale. Drop it so
    // a subsequent insert can replace it.
    entries_.erase(it);
    ++invalidated_;
    ++misses_;
    return nullptr;
  }
  ++hits_;
  return it->second.payload;
}

void MeasurementStore::insert(const MeasurementKey& key, Json payload) {
  if (mode_ != StoreMode::kReadWrite) return;
  ensure(!key.task.empty(), "MeasurementStore::insert: empty task key");
  ECOTUNE_DCHECK(key.fingerprint != 0,
                 "MeasurementStore::insert: key carries no fingerprint");
  const std::string task = scoped(key.task);
  // Encoded before any lock is taken: serializing the payload is the
  // expensive part, and concurrent inserts need not queue behind it.
  const std::string line = encode_line(task, key.fingerprint, payload);
  auto shared = std::make_shared<const Json>(std::move(payload));
  {
    Shard& shard = shard_of(task);
    const MutexLock lock(shard.mutex_);
    shard.insert_locked(task, key.fingerprint, std::move(shared));
  }
  // Shard lock released before the append lock is taken: the two locks are
  // never nested, so the overall order is acyclic by construction. Two
  // concurrent inserts of the *same* task may reach disk in either order,
  // but task keys are unique per measurement context and reload is
  // last-wins, so both interleavings replay to the same index.
  const MutexLock lock(append_mutex_);
  append_line_locked(line);
}

void MeasurementStore::Shard::insert_locked(
    std::string task, std::uint64_t fingerprint,
    std::shared_ptr<const Json> payload) {
  entries_[std::move(task)] = Entry{fingerprint, std::move(payload)};
}

void MeasurementStore::append_line_locked(const std::string& line) {
  // One write() call for the whole "entry\n" so appends stay atomic.
  appender_.write(line.data(), static_cast<std::streamsize>(line.size()));
  appender_.flush();
  if (!appender_.good())
    throw PreconditionError("MeasurementStore::insert: write to '" +
                            file_path_ + "' failed");
  ++writes_;
}

StoreStats MeasurementStore::stats() const {
  StoreStats total;
  // Shard-by-shard locked snapshot: each counter is internally consistent
  // (no torn reads), and with no in-flight requests the sums equal what a
  // single-mutex index would report. Summing in shard order keeps the
  // analysis happy -- no dynamic all-shards lock set.
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex_);
    total.hits += shard->hits_;
    total.misses += shard->misses_;
    total.invalidated += shard->invalidated_;
  }
  const MutexLock lock(append_mutex_);
  total.rejected = rejected_;
  total.writes = writes_;
  return total;
}

std::size_t MeasurementStore::size() const {
  std::size_t total = 0;
  for (const auto& shard : shards_) {
    const MutexLock lock(shard->mutex_);
    total += shard->entries_.size();
  }
  return total;
}

std::string MeasurementStore::summary() const {
  const StoreStats s = stats();
  std::ostringstream os;
  os << "[measurement-store] hits=" << s.hits << " misses=" << s.misses
     << " invalidated=" << s.invalidated << " rejected=" << s.rejected
     << " writes=" << s.writes << " entries=" << size()
     << " (mode=" << to_string(mode_) << ", dir=" << (dir_.empty() ? "-" : dir_)
     << ')';
  return os.str();
}

}  // namespace ecotune::store
