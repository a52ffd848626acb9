// Checkpoint/restore contract (DESIGN.md §13), three layers deep:
//
//  1. CheckpointIo       — Writer/Reader primitives: round-trips,
//                          bounds checks, tag guards, CRC-32 vectors.
//  2. CheckpointFile     — the sealed file format: atomic save,
//                          validated load, and the corruption matrix
//                          (truncated / flipped byte / wrong magic /
//                          wrong or retired version / graph mismatch /
//                          config mismatch / unknown backend), each
//                          mapping to its own distinct clean Status.
//  3. CheckpointResume   — the end-to-end property: save mid-run,
//                          restore into a fresh process-equivalent
//                          service, and the resumed trajectory is
//                          BIT-IDENTICAL to the uninterrupted run — for
//                          every K, cross-K, with the all-arms
//                          workload (loss + defended adversary +
//                          observer) live. Plus last-good fallback
//                          when the newest file is corrupt.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hpp"
#include "ckpt/io.hpp"
#include "graph/generators.hpp"
#include "telemetry/service_mode.hpp"

namespace {

using namespace ppo;

// ---------------------------------------------------------------------
// CheckpointIo
// ---------------------------------------------------------------------

TEST(CheckpointIo, WriterReaderRoundTrip) {
  ckpt::Writer w;
  w.u8(0xAB);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.f64(-1234.5e-7);
  w.b(true);
  w.b(false);
  w.size(42);
  w.str("pseudonym");
  w.str("");
  w.u64_vec({1, 2, 3});
  w.tag(0x504F4E47u);

  ckpt::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.f64(), -1234.5e-7);
  EXPECT_TRUE(r.b());
  EXPECT_FALSE(r.b());
  EXPECT_EQ(r.size(), 42u);
  EXPECT_EQ(r.str(), "pseudonym");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.u64_vec(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_NO_THROW(r.tag(0x504F4E47u));
  EXPECT_TRUE(r.done());
}

TEST(CheckpointIo, RngStateRoundTripContinuesIdentically) {
  Rng original(1234);
  for (int i = 0; i < 100; ++i) original.next_u64();

  ckpt::Writer w;
  w.rng(original);
  ckpt::Reader r(w.buffer());
  Rng restored = r.rng();

  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(original.next_u64(), restored.next_u64());
}

TEST(CheckpointIo, ReaderThrowsOnOverrun) {
  ckpt::Writer w;
  w.u32(7);
  ckpt::Reader r(w.buffer());
  EXPECT_NO_THROW(r.u32());
  EXPECT_THROW(r.u8(), ckpt::ParseError);
}

TEST(CheckpointIo, ReaderThrowsOnTagMismatch) {
  ckpt::Writer w;
  w.tag(0x11111111u);
  ckpt::Reader r(w.buffer());
  EXPECT_THROW(r.tag(0x22222222u), ckpt::ParseError);
}

TEST(CheckpointIo, ReaderRejectsOversizedLengthField) {
  // A corrupt length must become a diagnostic, not a bad_alloc.
  ckpt::Writer w;
  w.u64(~0ull);
  ckpt::Reader r(w.buffer());
  EXPECT_THROW(r.size(), ckpt::ParseError);
}

TEST(CheckpointIo, Crc32KnownVector) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(ckpt::crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::crc32("", 0), 0x00000000u);
}

// ---------------------------------------------------------------------
// CheckpointFile
// ---------------------------------------------------------------------

std::string temp_dir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

ckpt::Header sample_header() {
  ckpt::Header h;
  h.backend = ckpt::BackendKind::kSharded;
  h.shards_hint = 4;
  h.graph_fingerprint = 0x1111;
  h.config_hash = 0x2222;
  h.seed = 42;
  h.sim_time = 12.5;
  return h;
}

std::string write_sample(const std::string& dir, std::uint64_t index,
                         const std::string& payload = "payload-bytes") {
  const std::string path = ckpt::checkpoint_path(dir, index);
  std::string error;
  EXPECT_TRUE(ckpt::save_file(path, sample_header(), payload, &error))
      << error;
  return path;
}

TEST(CheckpointFile, SaveLoadRoundTrip) {
  const std::string dir = temp_dir("ckpt_roundtrip");
  const std::string path = write_sample(dir, 3, "the-payload");

  const ckpt::LoadResult res = ckpt::load_file(path);
  ASSERT_TRUE(res.ok()) << res.message;
  EXPECT_EQ(res.header.backend, ckpt::BackendKind::kSharded);
  EXPECT_EQ(res.header.shards_hint, 4u);
  EXPECT_EQ(res.header.graph_fingerprint, 0x1111u);
  EXPECT_EQ(res.header.config_hash, 0x2222u);
  EXPECT_EQ(res.header.seed, 42u);
  EXPECT_EQ(res.header.sim_time, 12.5);
  EXPECT_EQ(res.payload, "the-payload");
  // No .tmp residue: the write was atomic.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(CheckpointFile, MissingFileIsIoError) {
  const ckpt::LoadResult res = ckpt::load_file("/nonexistent/nope.ppoc");
  EXPECT_EQ(res.status, ckpt::Status::kIoError);
  EXPECT_FALSE(res.message.empty());
}

// The corruption matrix: every way a file can be bad yields its own
// Status and a non-empty diagnostic — fail closed, never UB.
TEST(CheckpointFile, CorruptionMatrix) {
  const std::string dir = temp_dir("ckpt_matrix");
  const std::string good = write_sample(dir, 0);
  std::string bytes;
  {
    std::ifstream in(good, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const auto write_variant = [&](const std::string& name,
                                 const std::string& data) {
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::binary);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    return path;
  };

  {  // Truncated mid-payload.
    const auto res = ckpt::load_file(
        write_variant("trunc.ppoc", bytes.substr(0, bytes.size() - 5)));
    EXPECT_EQ(res.status, ckpt::Status::kTruncated);
    EXPECT_FALSE(res.message.empty());
  }
  {  // Shorter than the fixed preamble.
    const auto res =
        ckpt::load_file(write_variant("stub.ppoc", bytes.substr(0, 8)));
    EXPECT_EQ(res.status, ckpt::Status::kTruncated);
  }
  {  // One flipped payload byte: CRC catches it.
    std::string flipped = bytes;
    flipped[flipped.size() - 3] ^= 0x40;
    const auto res = ckpt::load_file(write_variant("flip.ppoc", flipped));
    EXPECT_EQ(res.status, ckpt::Status::kBadCrc);
    EXPECT_FALSE(res.message.empty());
  }
  {  // Wrong magic: not one of ours.
    std::string magic = bytes;
    magic[0] = 'X';
    const auto res = ckpt::load_file(write_variant("magic.ppoc", magic));
    EXPECT_EQ(res.status, ckpt::Status::kBadMagic);
  }
  {  // Future format version.
    std::string ver = bytes;
    ver[4] = 99;
    const auto res = ckpt::load_file(write_variant("ver.ppoc", ver));
    EXPECT_EQ(res.status, ckpt::Status::kBadVersion);
    EXPECT_FALSE(res.message.empty());
  }
  // The original is still pristine (the matrix wrote copies).
  EXPECT_TRUE(ckpt::load_file(good).ok());
}

// Version 1 carried the serial backend's payloads and the pseudonym
// availability bit, version 2 the shared RNG streams, version 3 the
// delivery and timer journals; this build must refuse every older file
// before parsing a payload byte.
TEST(CheckpointFile, RejectsVersionOneFile) {
  const std::string dir = temp_dir("ckpt_v1");
  const std::string path = write_sample(dir, 0);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GE(ckpt::kVersion, 2u);
  for (std::uint32_t old = 1; old < ckpt::kVersion; ++old) {
    SCOPED_TRACE("version " + std::to_string(old));
    bytes[4] = static_cast<char>(old);  // little-endian u32 after the magic
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const ckpt::LoadResult res = ckpt::load_file(path);
    EXPECT_EQ(res.status, ckpt::Status::kBadVersion);
    EXPECT_NE(res.message.find("format version " + std::to_string(old)),
              std::string::npos)
        << res.message;
    EXPECT_TRUE(res.payload.empty());
  }
}

TEST(CheckpointFile, CompatGateDistinguishesMismatches) {
  const ckpt::Header h = sample_header();
  EXPECT_EQ(ckpt::check_compat(h, ckpt::BackendKind::kSharded, 0x1111,
                               0x2222),
            ckpt::Status::kOk);
  EXPECT_EQ(ckpt::check_compat(h, ckpt::BackendKind::kSharded, 0xBAD,
                               0x2222),
            ckpt::Status::kGraphMismatch);
  EXPECT_EQ(ckpt::check_compat(h, ckpt::BackendKind::kSharded, 0x1111,
                               0xBAD),
            ckpt::Status::kConfigMismatch);
  ckpt::Header other = h;  // a backend byte this build does not know
  other.backend = static_cast<ckpt::BackendKind>(0);
  EXPECT_EQ(ckpt::check_compat(other, ckpt::BackendKind::kSharded, 0x1111,
                               0x2222),
            ckpt::Status::kUnsupported);
}

TEST(CheckpointFile, GraphFingerprintSeparatesGraphs) {
  Rng r1(1), r2(1), r3(2);
  const graph::Graph a = graph::holme_kim(100, 4, 0.2, r1);
  const graph::Graph b = graph::holme_kim(100, 4, 0.2, r2);
  const graph::Graph c = graph::holme_kim(100, 4, 0.2, r3);
  EXPECT_EQ(ckpt::fingerprint_graph(a), ckpt::fingerprint_graph(b));
  EXPECT_NE(ckpt::fingerprint_graph(a), ckpt::fingerprint_graph(c));
}

TEST(CheckpointFile, ListCheckpointsSortsAndFilters) {
  const std::string dir = temp_dir("ckpt_list");
  write_sample(dir, 10);
  write_sample(dir, 2);
  write_sample(dir, 7);
  {  // Unrelated files are ignored.
    std::ofstream out(dir + "/notes.txt");
    out << "not a checkpoint\n";
  }
  const auto files = ckpt::list_checkpoints(dir);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0], ckpt::checkpoint_path(dir, 2));
  EXPECT_EQ(files[1], ckpt::checkpoint_path(dir, 7));
  EXPECT_EQ(files[2], ckpt::checkpoint_path(dir, 10));
  EXPECT_TRUE(ckpt::list_checkpoints(dir + "/missing").empty());
}

// ---------------------------------------------------------------------
// CheckpointResume — the end-to-end bit-identity property
// ---------------------------------------------------------------------

telemetry::ServiceModeOptions resume_workload(std::size_t shards) {
  telemetry::ServiceModeOptions opt;
  opt.nodes = 300;
  opt.alpha = 0.6;
  opt.seed = 7;
  opt.shards = shards;
  opt.horizon = 10.0;
  opt.slice = 1.0;
  // All-arms: link faults, defended mixed adversary, passive observer
  // — every checkpointable subsystem carries live state.
  opt.loss = 0.05;
  opt.adversary_fraction = 0.1;
  opt.adversary_attack = "mixed";
  opt.defended = true;
  opt.observer_coverage = 0.2;
  return opt;
}

void expect_same_trajectory(const telemetry::ServiceModeReport& a,
                            const telemetry::ServiceModeReport& b) {
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.overlay_edges, b.overlay_edges);
  EXPECT_EQ(a.online, b.online);
  EXPECT_EQ(a.health.requests_sent, b.health.requests_sent);
  EXPECT_EQ(a.health.responses_sent, b.health.responses_sent);
  EXPECT_EQ(a.health.exchanges_completed, b.health.exchanges_completed);
  EXPECT_EQ(a.health.messages_sent, b.health.messages_sent);
  EXPECT_EQ(a.health.messages_delivered, b.health.messages_delivered);
  EXPECT_EQ(a.health.messages_dropped, b.health.messages_dropped);
}

/// The kill-and-resume property: run to `cut` with checkpoints, then
/// resume in a fresh service to the full horizon — the result must be
/// bit-identical to the uninterrupted run at `resume_shards`.
void check_kill_and_resume(std::size_t save_shards,
                           std::size_t resume_shards, const char* tag,
                           double pseudonym_lifetime = 90.0) {
  const std::string dir = temp_dir(tag);

  auto straight = resume_workload(resume_shards);
  straight.pseudonym_lifetime = pseudonym_lifetime;
  const auto reference = telemetry::run_service_mode(straight);
  ASSERT_TRUE(reference.horizon_reached);

  auto first = resume_workload(save_shards);
  first.pseudonym_lifetime = pseudonym_lifetime;
  first.horizon = 5.0;
  first.checkpoint_every = 5.0;
  first.checkpoint_dir = dir;
  const auto half = telemetry::run_service_mode(first);
  ASSERT_EQ(half.checkpoints_written, 1u);

  auto second = resume_workload(resume_shards);
  second.pseudonym_lifetime = pseudonym_lifetime;
  second.checkpoint_dir = dir;
  second.resume = true;
  const auto resumed = telemetry::run_service_mode(second);
  ASSERT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_at, 5.0);
  EXPECT_TRUE(resumed.rejected_checkpoints.empty());
  expect_same_trajectory(reference, resumed);
}

TEST(CheckpointResume, ShardedK1BitIdentical) {
  check_kill_and_resume(1, 1, "ckpt_resume_k1");
}

TEST(CheckpointResume, ShardedK4BitIdentical) {
  check_kill_and_resume(4, 4, "ckpt_resume_k4");
}

TEST(CheckpointResume, ShardedRenewalWaveCrossesRestore) {
  // Regression: every initially-online node mints its pseudonym at
  // t=0, so all renewal alarms fire at exactly lifetime + 1e-9 — a
  // wall of events tied in time. Their journaled tickets must carry
  // the original (origin, seq); a journal of default tickets lets the
  // queue break the tie in another order and silently diverges the
  // trajectory. Lifetime 6 puts the wave at t≈6, after the t=5
  // checkpoint and before the horizon.
  check_kill_and_resume(4, 4, "ckpt_resume_renewal_k4", 6.0);
}

TEST(CheckpointResume, CrossShardCountK4ToK2) {
  // Sharded checkpoints are K-portable: every sequence counter is
  // actor-keyed, so a K=4 snapshot restores at K=2 onto the same
  // trajectory.
  check_kill_and_resume(4, 2, "ckpt_resume_k4_to_k2");
}

TEST(CheckpointResume, FallsBackPastCorruptNewest) {
  const std::string dir = temp_dir("ckpt_fallback");

  auto straight = resume_workload(1);
  const auto reference = telemetry::run_service_mode(straight);

  auto first = resume_workload(1);
  first.horizon = 7.0;
  first.checkpoint_every = 3.0;  // rounds up to slices: t=3 and t=6
  first.checkpoint_dir = dir;
  const auto half = telemetry::run_service_mode(first);
  ASSERT_EQ(half.checkpoints_written, 2u);

  // Flip one byte in the newest snapshot: resume must reject it with
  // a clean bad_crc diagnostic and restore the previous one.
  const auto files = ckpt::list_checkpoints(dir);
  ASSERT_EQ(files.size(), 2u);
  {
    std::fstream f(files.back(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(100);
    char c = 0;
    f.seekg(100);
    f.get(c);
    c ^= 0x10;
    f.seekp(100);
    f.put(c);
  }

  auto second = resume_workload(1);
  second.checkpoint_dir = dir;
  second.resume = true;
  const auto resumed = telemetry::run_service_mode(second);
  ASSERT_TRUE(resumed.resumed);
  EXPECT_EQ(resumed.resumed_at, 3.0);
  ASSERT_EQ(resumed.rejected_checkpoints.size(), 1u);
  EXPECT_NE(resumed.rejected_checkpoints[0].find("bad_crc"),
            std::string::npos);
  expect_same_trajectory(reference, resumed);
}

TEST(CheckpointResume, ColdStartsWhenNothingSurvives) {
  const std::string dir = temp_dir("ckpt_cold");
  {  // The only file present is garbage.
    std::ofstream out(ckpt::checkpoint_path(dir, 1), std::ios::binary);
    out << "garbage, not a checkpoint";
  }
  auto opt = resume_workload(1);
  opt.checkpoint_dir = dir;
  opt.resume = true;
  const auto run = telemetry::run_service_mode(opt);
  EXPECT_FALSE(run.resumed);
  ASSERT_EQ(run.rejected_checkpoints.size(), 1u);
  EXPECT_NE(run.rejected_checkpoints[0].find("bad_magic"),
            std::string::npos);
  // ... and the cold start is still the canonical trajectory.
  const auto reference = telemetry::run_service_mode(resume_workload(1));
  expect_same_trajectory(reference, run);
}

TEST(CheckpointResume, RejectsCheckpointFromDifferentWorkload) {
  const std::string dir = temp_dir("ckpt_wrong_config");
  auto first = resume_workload(1);
  first.horizon = 5.0;
  first.checkpoint_every = 5.0;
  first.checkpoint_dir = dir;
  ASSERT_EQ(telemetry::run_service_mode(first).checkpoints_written, 1u);

  auto second = resume_workload(1);
  second.checkpoint_dir = dir;
  second.resume = true;
  second.loss = 0.2;  // different workload → config_mismatch
  const auto run = telemetry::run_service_mode(second);
  EXPECT_FALSE(run.resumed);
  ASSERT_EQ(run.rejected_checkpoints.size(), 1u);
  EXPECT_NE(run.rejected_checkpoints[0].find("config_mismatch"),
            std::string::npos);
}

}  // namespace
