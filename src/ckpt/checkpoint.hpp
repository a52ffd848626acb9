// Versioned, CRC-sealed checkpoint files (DESIGN.md §13).
//
// File layout (all little-endian):
//   magic   u32  'PPOC'
//   version u32  kVersion
//   crc     u32  CRC-32 over everything after the size field
//   size    u64  byte count of header + payload
//   header       backend kind, shard hint, graph fingerprint, config
//                hash, root seed, sim time
//   payload      opaque component state (services own the schema)
//
// Contract: load validates magic, version, declared size and CRC
// before a single payload byte is parsed; every failure mode maps to
// a distinct Status with a human-readable message — a rejected file
// is a diagnostic, never UB. Writes are atomic: tmp file in the same
// directory, fsync, rename.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ckpt/io.hpp"
#include "graph/csr.hpp"

namespace ppo::ckpt {

inline constexpr std::uint32_t kMagic = 0x434F5050u;  // "PPOC"
/// Version 4: the payload ends in the simulator's queue section, every
/// pending event written as data (no delivery, timer or transition
/// journals). Older files load as kBadVersion.
inline constexpr std::uint32_t kVersion = 4;

enum class Status {
  kOk,
  kIoError,         // cannot open/read/write the file
  kTruncated,       // shorter than its declared size
  kBadMagic,        // not a checkpoint file
  kBadVersion,      // a format this build does not speak
  kBadCrc,          // bit rot / partial write: checksum mismatch
  kGraphMismatch,   // snapshot of a different trust graph
  kConfigMismatch,  // same graph, different workload configuration
  kUnsupported,     // feature combination outside the checkpoint scope
};

const char* status_name(Status s);

/// Backend the snapshot was taken on. There is one: the sharded core,
/// whose checkpoints restore at any shard count. Any other value in a
/// header is rejected as kUnsupported.
enum class BackendKind : std::uint8_t { kSharded = 1 };

struct Header {
  BackendKind backend = BackendKind::kSharded;
  std::uint32_t shards_hint = 0;        // K at save time (informational)
  std::uint64_t graph_fingerprint = 0;  // fingerprint_graph() of the trust graph
  std::uint64_t config_hash = 0;        // caller-defined workload identity
  std::uint64_t seed = 0;               // root seed of the run
  double sim_time = 0.0;                // virtual time of the snapshot
};

struct LoadResult {
  Status status = Status::kIoError;
  std::string message;
  Header header;
  std::string payload;
  bool ok() const { return status == Status::kOk; }
};

/// Atomically writes `header` + `payload` to `path` (tmp + fsync +
/// rename). Returns false and fills `error` on failure; a failed save
/// never leaves a partial file at `path`.
bool save_file(const std::string& path, const Header& header,
               std::string_view payload, std::string* error);

/// Reads and validates a checkpoint file. On any failure the result
/// carries the precise Status and message; payload is only filled on
/// kOk.
LoadResult load_file(const std::string& path);

/// Compatibility gate run after a structurally valid load: the
/// snapshot must describe the same graph and workload the caller
/// rebuilt. Returns kOk or the specific mismatch.
Status check_compat(const Header& header, BackendKind backend,
                    std::uint64_t graph_fingerprint,
                    std::uint64_t config_hash);

/// Order-independent FNV-1a fingerprint of a trust graph's exact
/// structure (node count + every directed adjacency slot), the
/// load-time identity check against resuming onto the wrong graph.
std::uint64_t fingerprint_graph(const graph::GraphView& g);

/// FNV-1a over a byte string, for config hashes.
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed = 0);

/// Checkpoint files in `dir` named by this module (ckpt-*.ppoc),
/// sorted oldest-first. Missing directory -> empty list.
std::vector<std::string> list_checkpoints(const std::string& dir);

/// Canonical file name for the `index`-th snapshot of a run.
std::string checkpoint_path(const std::string& dir, std::uint64_t index);

}  // namespace ppo::ckpt
