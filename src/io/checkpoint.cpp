#include "io/checkpoint.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/error.hpp"

namespace ptim::io {

namespace {

constexpr char kMagic[8] = {'P', 'T', 'I', 'M', 'C', 'K', 'P', 'T'};

// Serializer that both writes bytes and threads them through the FNV-1a
// checksum, so the on-disk checksum covers exactly what was emitted.
struct Writer {
  std::FILE* f;
  uint64_t hash = kFnvOffset;
  bool hashing = false;

  void bytes(const void* p, size_t n) {
    PTIM_CHECK_MSG(std::fwrite(p, 1, n, f) == n, "checkpoint write failed");
    if (hashing) hash = fnv1a(p, n, hash);
  }
  template <class T>
  void pod(const T& v) {
    bytes(&v, sizeof(T));
  }
};

struct Reader {
  std::FILE* f;
  const std::string* path;
  uint64_t hash = kFnvOffset;
  bool hashing = false;

  void bytes(void* p, size_t n) {
    PTIM_CHECK_MSG(std::fread(p, 1, n, f) == n,
                   "checkpoint truncated: " << *path);
    if (hashing) hash = fnv1a(p, n, hash);
  }
  template <class T>
  T pod() {
    T v;
    bytes(&v, sizeof(T));
    return v;
  }
  // Bytes between the read position and the end of the file.
  uint64_t remaining() {
    const long here = std::ftell(f);
    PTIM_CHECK_MSG(here >= 0 && std::fseek(f, 0, SEEK_END) == 0,
                   "checkpoint not seekable: " << *path);
    const long end = std::ftell(f);
    PTIM_CHECK_MSG(end >= here && std::fseek(f, here, SEEK_SET) == 0,
                   "checkpoint not seekable: " << *path);
    return static_cast<uint64_t>(end - here);
  }
};

// RAII close for the error/unwind paths only. The SUCCESS path must close
// through close_checked(): fclose flushes the stdio buffer a final time,
// and an error there (full disk, NFS write-back) means the bytes never
// landed — silently ignoring it would publish a truncated checkpoint.
struct FileCloser {
  std::FILE* f;
  ~FileCloser() {
    if (f) std::fclose(f);  // already unwinding: nothing useful to report
  }
  void close_checked(const std::string& path) {
    std::FILE* h = f;
    f = nullptr;  // never double-close, even if the check below throws
    PTIM_CHECK_MSG(std::fclose(h) == 0,
                   "checkpoint close failed (I/O error flushing final "
                   "buffers — disk full?): "
                       << path);
  }
};

uint32_t byteswap32(uint32_t v) {
  return ((v & 0xff000000u) >> 24) | ((v & 0x00ff0000u) >> 8) |
         ((v & 0x0000ff00u) << 8) | ((v & 0x000000ffu) << 24);
}

}  // namespace

void save_checkpoint(const std::string& path, const Checkpoint& c) {
  PTIM_CHECK_MSG(c.state.phi.cols() == c.state.sigma.rows() &&
                     c.state.sigma.rows() == c.state.sigma.cols(),
                 "checkpoint state dimensions inconsistent");
  // Stage into a sibling temp file and rename over the target only once
  // every byte (and the final flush/fsync/close) succeeded: rename(2) on
  // the same filesystem is atomic, so `path` always holds a COMPLETE
  // checkpoint — the old one until the instant the new one is ready.
  const std::string tmp = path + ".tmp";
  try {
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    PTIM_CHECK_MSG(f != nullptr,
                   "cannot open checkpoint for writing: " << tmp);
    FileCloser closer{f};
    Writer w{f};
    w.bytes(kMagic, sizeof(kMagic));
    w.hashing = true;  // checksum covers everything after the magic
    w.pod<uint32_t>(kCheckpointVersion);
    w.pod<uint32_t>(kEndianSentinel);
    w.pod<uint64_t>(c.config_hash);
    w.pod<uint64_t>(c.step_index);
    w.pod<double>(c.state.time);
    for (int d = 0; d < 3; ++d) w.pod<double>(c.avec[d]);
    const uint64_t npw = c.state.phi.rows();
    const uint64_t nb = c.state.phi.cols();
    w.pod<uint64_t>(npw);
    w.pod<uint64_t>(nb);
    w.bytes(c.state.phi.data(), npw * nb * sizeof(cplx));
    w.bytes(c.state.sigma.data(), nb * nb * sizeof(cplx));
    const uint64_t meta_len = c.campaign_meta.size();
    w.pod<uint64_t>(meta_len);
    if (meta_len > 0) w.bytes(c.campaign_meta.data(), meta_len);
    w.hashing = false;
    w.pod<uint64_t>(w.hash);
    PTIM_CHECK_MSG(std::fflush(f) == 0, "checkpoint flush failed: " << tmp);
    // Push the bytes to stable storage BEFORE the rename publishes the
    // file, so a power loss cannot commit a name pointing at lost data.
    PTIM_CHECK_MSG(::fsync(::fileno(f)) == 0,
                   "checkpoint fsync failed: " << tmp);
    closer.close_checked(tmp);
  } catch (...) {
    std::remove(tmp.c_str());  // never leave partial staging files behind
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    PTIM_CHECK_MSG(false, "checkpoint rename failed: " << tmp << " -> "
                                                       << path);
  }
}

Checkpoint load_checkpoint(const std::string& path,
                           uint64_t expected_config_hash) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  PTIM_CHECK_MSG(f != nullptr, "checkpoint file missing: " << path);
  FileCloser closer{f};
  Reader r{f, &path};
  char magic[8];
  r.bytes(magic, sizeof(magic));
  PTIM_CHECK_MSG(std::memcmp(magic, kMagic, sizeof(kMagic)) == 0,
                 "not a ptim checkpoint (bad magic): " << path);
  r.hashing = true;
  const auto version = r.pod<uint32_t>();
  // A big-endian writer stores the version with swapped bytes; diagnose
  // that up front instead of failing later at the checksum with a
  // misleading "corrupt" message.
  PTIM_CHECK_MSG(byteswap32(version) != kCheckpointVersion &&
                     byteswap32(version) != 1u,
                 "checkpoint was written on an opposite-endianness machine "
                 "(byte-swapped version field): "
                     << path);
  PTIM_CHECK_MSG(version == kCheckpointVersion || version == 1,
                 "unsupported checkpoint version " << version << " (expected "
                                                   << kCheckpointVersion
                                                   << "): " << path);
  if (version >= 2) {
    const auto sentinel = r.pod<uint32_t>();
    PTIM_CHECK_MSG(sentinel != kEndianSentinelSwapped,
                   "checkpoint was written on an opposite-endianness "
                   "machine (sentinel 0x04030201): "
                       << path);
    PTIM_CHECK_MSG(sentinel == kEndianSentinel,
                   "checkpoint header corrupt (bad endianness sentinel): "
                       << path);
  }
  Checkpoint c;
  c.config_hash = r.pod<uint64_t>();
  c.step_index = r.pod<uint64_t>();
  c.state.time = r.pod<double>();
  for (int d = 0; d < 3; ++d) c.avec[d] = r.pod<double>();
  const auto npw = r.pod<uint64_t>();
  const auto nb = r.pod<uint64_t>();
  // Bound the dimensions by the file before allocating: a corrupted size
  // field must fail as a descriptive error, not a bad_alloc (or worse).
  // The first bound keeps (npw + nb) * nb * 16 below 2^57, so the payload
  // byte count cannot overflow.
  PTIM_CHECK_MSG(npw > 0 && nb > 0 && npw < (1ull << 32) && nb < (1ull << 20),
                 "checkpoint dimensions implausible (npw=" << npw << ", nb="
                                                           << nb
                                                           << "): " << path);
  const uint64_t payload = (npw + nb) * nb * sizeof(cplx);
  const uint64_t left = r.remaining();
  PTIM_CHECK_MSG(payload <= left,
                 "checkpoint truncated or header corrupt (npw="
                     << npw << ", nb=" << nb << " need " << payload
                     << " payload bytes, the file has " << left
                     << "): " << path);
  c.state.phi.resize(npw, nb);
  c.state.sigma.resize(nb, nb);
  r.bytes(c.state.phi.data(), npw * nb * sizeof(cplx));
  r.bytes(c.state.sigma.data(), nb * nb * sizeof(cplx));
  if (version >= 2) {
    const auto meta_len = r.pod<uint64_t>();
    PTIM_CHECK_MSG(meta_len < (1ull << 30),
                   "checkpoint metadata length implausible (" << meta_len
                                                              << "): "
                                                              << path);
    c.campaign_meta.resize(meta_len);
    if (meta_len > 0) r.bytes(c.campaign_meta.data(), meta_len);
  }
  r.hashing = false;
  const uint64_t computed = r.hash;
  const auto stored = r.pod<uint64_t>();
  PTIM_CHECK_MSG(stored == computed,
                 "checkpoint checksum mismatch (file corrupt): " << path);
  // The checksum is the LAST field: anything after it was never covered by
  // it, so a file with trailing bytes is not the file the writer produced
  // (concatenated segments, a torn copy, tampering) — reject it.
  PTIM_CHECK_MSG(std::fgetc(f) == EOF,
                 "checkpoint has trailing bytes after the checksum: "
                     << path);
  PTIM_CHECK_MSG(expected_config_hash == 0 ||
                     c.config_hash == expected_config_hash,
                 "checkpoint was written by a different run configuration "
                 "(stored hash "
                     << c.config_hash << ", expected " << expected_config_hash
                     << "): " << path);
  return c;
}

}  // namespace ptim::io
