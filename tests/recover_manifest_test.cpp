// fgcs::recover: manifest round-trips and tamper detection, sweep
// fingerprint sensitivity, RNG substream keys, shard state blobs, and
// plan_resume's validate-everything semantics.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "fgcs/recover/manifest.hpp"
#include "fgcs/recover/shard_state.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/io.hpp"

namespace fgcs::recover {
namespace {

namespace fs = std::filesystem;

ShardCheckpoint sample_shard(std::uint64_t idx) {
  ShardCheckpoint cp;
  cp.shard = idx;
  cp.first_machine = static_cast<std::uint32_t>(idx * 4);
  cp.machine_count = 4;
  cp.records = 1000 + idx;
  cp.segment_name = "shard-000" + std::to_string(idx) + ".trc2";
  cp.segment_crc = 0xDEADBEEFu ^ static_cast<std::uint32_t>(idx);
  cp.segment_bytes = 4096 + idx;
  cp.state_name = shard_state_name(idx);
  cp.state_crc = 0x1234u + static_cast<std::uint32_t>(idx);
  cp.rng_key = shard_rng_key(20050815, cp.first_machine);
  return cp;
}

Manifest sample_manifest() {
  Manifest m;
  m.fingerprint = 0xABCDEF0123456789ull;
  m.shard_count = 6;
  m.shards = {sample_shard(0), sample_shard(2), sample_shard(5)};
  return m;
}

SweepIdentity sample_identity() {
  SweepIdentity id;
  id.machines = 24;
  id.days = 7;
  id.start_dow = 1;
  id.seed = 20050815;
  id.shard_machines = 4;
  id.fault_plan = "none";
  id.metrics = true;
  id.metrics_resolution_us = 3600000000;
  id.ram_mb = 1024.0;
  id.kernel_mb = 100.0;
  id.th1 = 0.20;
  id.th2 = 0.60;
  id.sample_period_us = 15000000;
  return id;
}

class ManifestDirTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per test and per process: ctest -j runs each case in its own
    // process, all at once.
    dir_ = (fs::temp_directory_path() /
            ("recover_manifest_test." + std::to_string(::getpid()) + "." +
             ::testing::UnitTest::GetInstance()->current_test_info()->name()))
               .string();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const {
    return (fs::path(dir_) / name).string();
  }
  void write_file(const std::string& name, const std::string& bytes) const {
    std::ofstream out(path(name), std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  std::string dir_;
};

// --- serialization ---------------------------------------------------------

TEST(RecoverManifest, SerializeParseRoundTrips) {
  const Manifest m = sample_manifest();
  const Manifest back = Manifest::parse(m.serialize(), "test");
  EXPECT_EQ(back.fingerprint, m.fingerprint);
  EXPECT_EQ(back.shard_count, m.shard_count);
  ASSERT_EQ(back.shards.size(), m.shards.size());
  for (std::size_t i = 0; i < m.shards.size(); ++i) {
    const ShardCheckpoint& a = m.shards[i];
    const ShardCheckpoint& b = back.shards[i];
    EXPECT_EQ(b.shard, a.shard);
    EXPECT_EQ(b.first_machine, a.first_machine);
    EXPECT_EQ(b.machine_count, a.machine_count);
    EXPECT_EQ(b.records, a.records);
    EXPECT_EQ(b.segment_name, a.segment_name);
    EXPECT_EQ(b.segment_crc, a.segment_crc);
    EXPECT_EQ(b.segment_bytes, a.segment_bytes);
    EXPECT_EQ(b.state_name, a.state_name);
    EXPECT_EQ(b.state_crc, a.state_crc);
    EXPECT_EQ(b.rng_key, a.rng_key);
  }
}

TEST(RecoverManifest, EmptyManifestRoundTrips) {
  Manifest m;
  m.fingerprint = 7;
  m.shard_count = 3;
  const Manifest back = Manifest::parse(m.serialize(), "test");
  EXPECT_EQ(back.fingerprint, 7u);
  EXPECT_EQ(back.shard_count, 3u);
  EXPECT_TRUE(back.shards.empty());
}

TEST(RecoverManifest, TrailingCrcCatchesAnySingleByteFlip) {
  const std::string text = sample_manifest().serialize();
  // Flip one byte in the body (not inside the crc line itself, whose own
  // corruption is equally fatal — spot-check a few offsets).
  for (std::size_t off : {std::size_t{0}, text.size() / 3, text.size() / 2}) {
    std::string bad = text;
    bad[off] = static_cast<char>(bad[off] ^ 0x20);
    EXPECT_THROW(Manifest::parse(bad, "test"), IoError) << off;
  }
}

TEST(RecoverManifest, RejectsAlienHeaderAndMalformedLines) {
  EXPECT_THROW(Manifest::parse("", "test"), IoError);
  EXPECT_THROW(Manifest::parse("not-a-checkpoint v1\n", "test"),
               IoError);
  EXPECT_THROW(Manifest::parse("fgcs-checkpoint v99\n", "test"),
               IoError);

  // A structurally valid file with a garbage shard line must not parse
  // even with a correct trailing CRC.
  std::string body =
      "fgcs-checkpoint v1\n"
      "fingerprint 00000000000000ff\n"
      "shard_count 2\n"
      "shard zero seg.trc2 st.state 0 1 10 00000000 1 00000000 0\n";
  char crc_line[32];
  std::snprintf(crc_line, sizeof crc_line, "crc %08x\n",
                util::crc32(body.data(), body.size()));
  EXPECT_THROW(Manifest::parse(body + crc_line, "test"), IoError);
}

TEST(RecoverManifest, RejectsDuplicateAndOutOfRangeShards) {
  Manifest m = sample_manifest();
  m.shards.push_back(sample_shard(2));  // duplicate of an existing entry
  EXPECT_THROW(Manifest::parse(m.serialize(), "test"), IoError);

  Manifest n = sample_manifest();
  n.shards.push_back(sample_shard(n.shard_count));  // index == count
  EXPECT_THROW(Manifest::parse(n.serialize(), "test"), IoError);

  Manifest z = sample_manifest();
  z.shards[0].machine_count = 0;
  EXPECT_THROW(Manifest::parse(z.serialize(), "test"), IoError);
}

// --- fingerprint -----------------------------------------------------------

TEST(RecoverManifest, FingerprintIsStableForEqualIdentities) {
  EXPECT_EQ(fingerprint(sample_identity()), fingerprint(sample_identity()));
}

TEST(RecoverManifest, FingerprintIsSensitiveToEveryField) {
  const std::uint64_t base = fingerprint(sample_identity());
  SweepIdentity id;

  id = sample_identity(); id.machines = 25;
  EXPECT_NE(fingerprint(id), base) << "machines";
  id = sample_identity(); id.days = 8;
  EXPECT_NE(fingerprint(id), base) << "days";
  id = sample_identity(); id.start_dow = 2;
  EXPECT_NE(fingerprint(id), base) << "start_dow";
  id = sample_identity(); id.seed = 20050816;
  EXPECT_NE(fingerprint(id), base) << "seed";
  id = sample_identity(); id.shard_machines = 8;
  EXPECT_NE(fingerprint(id), base) << "shard_machines";
  id = sample_identity(); id.fault_plan = "crash:0.1";
  EXPECT_NE(fingerprint(id), base) << "fault_plan";
  id = sample_identity(); id.metrics = false;
  EXPECT_NE(fingerprint(id), base) << "metrics";
  id = sample_identity(); id.metrics_resolution_us = 60000000;
  EXPECT_NE(fingerprint(id), base) << "metrics_resolution_us";
  id = sample_identity(); id.ram_mb = 2048.0;
  EXPECT_NE(fingerprint(id), base) << "ram_mb";
  id = sample_identity(); id.kernel_mb = 200.0;
  EXPECT_NE(fingerprint(id), base) << "kernel_mb";
  id = sample_identity(); id.th1 = 0.25;
  EXPECT_NE(fingerprint(id), base) << "th1";
  id = sample_identity(); id.th2 = 0.65;
  EXPECT_NE(fingerprint(id), base) << "th2";
  id = sample_identity(); id.sample_period_us = 30000000;
  EXPECT_NE(fingerprint(id), base) << "sample_period_us";
}

TEST(RecoverManifest, ShardRngKeysDifferPerShardAndPerSeed) {
  EXPECT_NE(shard_rng_key(1, 0), shard_rng_key(1, 4));
  EXPECT_NE(shard_rng_key(1, 0), shard_rng_key(2, 0));
  EXPECT_EQ(shard_rng_key(1, 0), shard_rng_key(1, 0));
}

// --- shard state blobs -----------------------------------------------------

TEST_F(ManifestDirTest, ShardStateRoundTripsAndDetectsCorruption) {
  ShardState state;
  state.counters.testbed_machines = 3;
  state.counters.sim_events_executed = 4321;
  state.records = 4321;
  state.ts_bins = {1, 2, 3, 4, 5, 6, 7, 8};

  const std::string blob = path(shard_state_name(7));
  EXPECT_EQ(shard_state_name(7), "shard-0007.state");
  const std::uint32_t crc = write_shard_state(blob, state);
  EXPECT_EQ(crc, util::file_crc32(blob));

  const ShardState back = read_shard_state(blob);
  EXPECT_EQ(back.records, 4321u);
  EXPECT_EQ(back.counters.testbed_machines, 3u);
  EXPECT_EQ(back.counters.sim_events_executed, 4321u);
  EXPECT_EQ(back.ts_bins, state.ts_bins);

  // Flip one payload byte: the trailing CRC must catch it.
  {
    std::fstream f(blob, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(16);
    char c;
    f.seekg(16); f.get(c);
    f.seekp(16); f.put(static_cast<char>(c ^ 0x01));
  }
  EXPECT_THROW(read_shard_state(blob), IoError);
  EXPECT_THROW(read_shard_state(path("missing.state")), IoError);
}

// --- plan_resume -----------------------------------------------------------

TEST_F(ManifestDirTest, MissingManifestMeansFreshStart) {
  const ResumePlan plan = plan_resume(dir_, 0x1234, 4, 1);
  EXPECT_TRUE(plan.valid.empty());
  EXPECT_TRUE(plan.dropped.empty());
}

TEST_F(ManifestDirTest, WrongFingerprintOrShardCountIsLoud) {
  Manifest m;
  m.fingerprint = 0xAAAA;
  m.shard_count = 4;
  const std::string text = m.serialize();
  util::atomic_replace_file(manifest_path(dir_), text.data(), text.size());

  EXPECT_NO_THROW(plan_resume(dir_, 0xAAAA, 4, 1));
  EXPECT_THROW(plan_resume(dir_, 0xBBBB, 4, 1), IoError);
  EXPECT_THROW(plan_resume(dir_, 0xAAAA, 5, 1), IoError);
}

TEST_F(ManifestDirTest, ValidatesEveryClaimedFileAndDropsTheRest) {
  // Build a manifest claiming three shards; give shard 0 perfect files,
  // shard 1 a resized segment, and shard 2 no state blob at all.
  const std::uint64_t seed = 99;
  const std::string seg_bytes = "columnar segment stand-in";
  ShardState st;
  st.records = 10;

  Manifest m;
  m.fingerprint = 0xF00D;
  m.shard_count = 3;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ShardCheckpoint cp;
    cp.shard = i;
    cp.first_machine = static_cast<std::uint32_t>(i * 2);
    cp.machine_count = 2;
    cp.records = 10;
    cp.segment_name = "seg-" + std::to_string(i) + ".trc2";
    cp.state_name = "st-" + std::to_string(i) + ".state";
    cp.rng_key = shard_rng_key(seed, cp.first_machine);
    write_file(cp.segment_name, seg_bytes);
    cp.segment_crc = util::crc32(seg_bytes.data(), seg_bytes.size());
    cp.segment_bytes = seg_bytes.size();
    cp.state_crc = write_shard_state(path(cp.state_name), st);
    m.shards.push_back(cp);
  }
  write_file(m.shards[1].segment_name, seg_bytes + "!");  // resized
  fs::remove(path(m.shards[2].state_name));               // missing

  const std::string text = m.serialize();
  util::atomic_replace_file(manifest_path(dir_), text.data(), text.size());

  const ResumePlan plan = plan_resume(dir_, 0xF00D, 3, seed);
  ASSERT_EQ(plan.valid.size(), 1u);
  EXPECT_EQ(plan.valid[0].shard, 0u);
  EXPECT_EQ(plan.dropped.size(), 2u);
}

TEST_F(ManifestDirTest, StaleRngKeyIsDroppedNotSpliced) {
  const std::string seg_bytes = "segment";
  ShardState st;
  st.records = 1;

  Manifest m;
  m.fingerprint = 0xF00D;
  m.shard_count = 1;
  ShardCheckpoint cp;
  cp.shard = 0;
  cp.first_machine = 0;
  cp.machine_count = 2;
  cp.records = 1;
  cp.segment_name = "seg.trc2";
  cp.state_name = "st.state";
  cp.rng_key = shard_rng_key(123, 0) ^ 1;  // derivation "changed"
  write_file(cp.segment_name, seg_bytes);
  cp.segment_crc = util::crc32(seg_bytes.data(), seg_bytes.size());
  cp.segment_bytes = seg_bytes.size();
  cp.state_crc = write_shard_state(path(cp.state_name), st);
  m.shards.push_back(cp);

  const std::string text = m.serialize();
  util::atomic_replace_file(manifest_path(dir_), text.data(), text.size());

  const ResumePlan plan = plan_resume(dir_, 0xF00D, 1, 123);
  EXPECT_TRUE(plan.valid.empty());
  ASSERT_EQ(plan.dropped.size(), 1u);
}

// --- CheckpointLog ---------------------------------------------------------

TEST_F(ManifestDirTest, CheckpointLogCommitsDurablyAndRejectsDuplicates) {
  CheckpointLog log(dir_, 0xBEEF, 4);
  log.commit(sample_shard(1));
  log.commit(sample_shard(3));

  // The on-disk manifest is parseable and lists both shards in order.
  std::ifstream in(manifest_path(dir_), std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const Manifest on_disk = Manifest::parse(text, "on-disk");
  EXPECT_EQ(on_disk.fingerprint, 0xBEEFu);
  ASSERT_EQ(on_disk.shards.size(), 2u);
  EXPECT_EQ(on_disk.shards[0].shard, 1u);
  EXPECT_EQ(on_disk.shards[1].shard, 3u);
  EXPECT_FALSE(fs::exists(manifest_path(dir_) + ".tmp"));

  // Double-committing a shard is a caller bug, not an I/O condition.
  EXPECT_THROW(log.commit(sample_shard(3)), ConfigError);
  EXPECT_EQ(log.snapshot().shards.size(), 2u);
}

TEST_F(ManifestDirTest, PreloadedShardsSurviveTheNextRewrite) {
  CheckpointLog log(dir_, 0xBEEF, 4);
  log.preload({sample_shard(0), sample_shard(2)});
  log.commit(sample_shard(1));

  std::ifstream in(manifest_path(dir_), std::ios::binary);
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  const Manifest on_disk = Manifest::parse(text, "on-disk");
  ASSERT_EQ(on_disk.shards.size(), 3u);
  EXPECT_EQ(on_disk.shards[0].shard, 0u);
  EXPECT_EQ(on_disk.shards[1].shard, 1u);
  EXPECT_EQ(on_disk.shards[2].shard, 2u);
}

}  // namespace
}  // namespace fgcs::recover
