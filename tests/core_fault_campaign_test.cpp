// Fault-injection campaign engine: grid validation, per-job error
// isolation, thread-count determinism of the full result document, and
// byte-identical checkpoint resume (the "kill -9 the campaign" gate).
#include "core/fault_campaign.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "obs/event_trace.hpp"
#include "obs/sink.hpp"

namespace xbarlife::core {
namespace {

/// Restores the serial default so test order never leaks thread state.
struct ThreadGuard {
  ~ThreadGuard() { set_parallel_threads(1); }
};

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.name = "campaign-tiny";
  cfg.model = ExperimentConfig::Model::kMlp;
  cfg.mlp_hidden = {16};
  cfg.dataset.classes = 4;
  cfg.dataset.channels = 1;
  cfg.dataset.height = 6;
  cfg.dataset.width = 6;
  cfg.dataset.train_per_class = 24;
  cfg.dataset.test_per_class = 6;
  cfg.dataset.noise = 0.1;
  cfg.train_config.epochs = 2;
  cfg.train_config.batch = 16;
  cfg.train_config.learning_rate = 0.05;
  cfg.lifetime.max_sessions = 4;
  cfg.lifetime.tuning.eval_samples = 24;
  cfg.lifetime.tuning.max_iterations = 20;
  cfg.target_accuracy_fraction = 0.8;
  return cfg;
}

FaultCampaignConfig tiny_campaign() {
  FaultCampaignConfig cc;
  cc.base = tiny_config();
  cc.replicates = 2;
  cc.campaign_seed = 33;
  FaultPoint clean;
  clean.label = "clean";
  cc.points.push_back(clean);
  FaultPoint faulty;
  faulty.label = "faulty";
  faulty.faults.nonideal.stuck_off_fraction = 0.05;
  faulty.faults.nonideal.write_noise_sigma = 0.03;
  faulty.faults.spare_rows = 2;
  cc.points.push_back(faulty);
  return cc;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(FaultCampaignConfig, RejectsBadGrids) {
  FaultCampaignConfig cc = tiny_campaign();
  cc.points.clear();
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.points[1].label = cc.points[0].label;
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.points[0].label.clear();
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.replicates = 0;
  EXPECT_THROW(cc.validate(), InvalidArgument);

  cc = tiny_campaign();
  cc.points[1].faults.nonideal.stuck_off_fraction = 2.0;
  EXPECT_THROW(cc.validate(), InvalidArgument);
}

TEST(FaultCampaign, ThreadedRunMatchesSerialByteForByte) {
  ThreadGuard guard;
  const FaultCampaignConfig cc = tiny_campaign();

  set_parallel_threads(1);
  const std::string serial =
      fault_campaign_json(run_fault_campaign(cc)).dump();
  set_parallel_threads(4);
  const std::string threaded =
      fault_campaign_json(run_fault_campaign(cc)).dump();

  EXPECT_EQ(serial, threaded);
  EXPECT_NE(serial.find("\"label\":\"faulty/ST+AT/r1\""),
            std::string::npos);
}

TEST(FaultCampaign, FailedJobsAreRecordedNotFatal) {
  FaultCampaignConfig cc = tiny_campaign();
  cc.replicates = 1;
  // A one-level quantizer cannot exist: every job throws InvalidArgument
  // inside the fan-out. The campaign must record the failures per entry
  // and still assemble a complete result document.
  cc.base.lifetime.levels = 1;
  const SweepOutcome result = run_fault_campaign(cc);
  ASSERT_EQ(result.jobs.size(), 2u);
  EXPECT_EQ(result.failed_jobs, result.jobs.size());
  const std::string doc = fault_campaign_json(result).dump();
  EXPECT_NE(doc.find("\"failed\":true"), std::string::npos);
  EXPECT_NE(doc.find("two levels"), std::string::npos);
}

TEST(FaultCampaign, CheckpointResumeIsByteIdentical) {
  ThreadGuard guard;
  set_parallel_threads(2);
  FaultCampaignConfig cc = tiny_campaign();

  // Reference: one uninterrupted run, no checkpoint.
  const std::string reference =
      fault_campaign_json(run_fault_campaign(cc)).dump();

  // Full checkpointed run: 4 jobs in chunks of 3 -> generation 1 (3 jobs
  // done) rotates into the .bak slot when generation 2 (all done) lands.
  const std::string path = ::testing::TempDir() + "xbarlife_ck.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  cc.checkpoint_path = path;
  cc.checkpoint_chunk = 3;
  const SweepOutcome full = run_fault_campaign(cc);
  EXPECT_EQ(full.resumed_jobs, 0u);
  EXPECT_EQ(full.executed_jobs, full.jobs.size());
  EXPECT_EQ(full.checkpoint_generation, 2u);
  EXPECT_FALSE(full.fallback_used);
  EXPECT_EQ(fault_campaign_json(full).dump(), reference);

  // Simulate a crash mid-write: flip the newest snapshot's last payload
  // byte. The resume must reject it (checksum) and fall back to the .bak
  // generation, replaying its 3 completed jobs and running only the rest.
  {
    std::string bytes = read_file(path);
    ASSERT_FALSE(bytes.empty());
    bytes.back() = static_cast<char>(bytes.back() ^ 0x5a);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  const SweepOutcome resumed = run_fault_campaign(cc);
  EXPECT_EQ(resumed.resumed_jobs, 3u);
  EXPECT_EQ(resumed.executed_jobs, resumed.jobs.size() - 3);
  EXPECT_TRUE(resumed.fallback_used);
  EXPECT_EQ(fault_campaign_json(resumed).dump(), reference);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

TEST(FaultCampaign, RejectsForeignCheckpoints) {
  FaultCampaignConfig cc = tiny_campaign();
  cc.replicates = 1;
  cc.base.lifetime.max_sessions = 1;
  const std::string path = ::testing::TempDir() + "xbarlife_ck_bad.ckpt";
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
  {
    std::ofstream out(path, std::ios::trunc);
    out << "{\"something\":\"else\"}\n";
  }
  cc.checkpoint_path = path;
  EXPECT_THROW(run_fault_campaign(cc), IoError);

  // A real snapshot of a finished campaign fails closed under any change
  // its entries depend on, and still resumes under the same config.
  std::remove(path.c_str());
  const std::size_t jobs = run_fault_campaign(cc).jobs.size();
  FaultCampaignConfig sessions = cc;
  sessions.base.lifetime.max_sessions = 6;
  EXPECT_THROW(run_fault_campaign(sessions), IoError);
  FaultCampaignConfig model = cc;
  model.base.model = ExperimentConfig::Model::kLeNet5;
  EXPECT_THROW(run_fault_campaign(model), IoError);
  FaultCampaignConfig spares = cc;
  spares.points[1].faults.spare_rows = 4;
  spares.points[1].resilience.ladder_enabled = false;
  EXPECT_THROW(run_fault_campaign(spares), IoError);
  EXPECT_EQ(run_fault_campaign(cc).resumed_jobs, jobs);
  std::remove(path.c_str());
  std::remove((path + ".bak").c_str());
}

/// A campaign's event stream with the wall-clock ("_ms") fields and the
/// seq-less checkpoint meta events removed, one event per line.
std::vector<std::string> stripped_trace(const FaultCampaignConfig& cc) {
  obs::MemorySink sink;
  obs::EventTrace trace(&sink);
  obs::Obs obs;
  obs.trace = &trace;
  run_fault_campaign(cc, obs);
  const std::regex wall_clock(",\"[A-Za-z0-9_.]*_ms\":[-+0-9.eE]+");
  std::vector<std::string> out;
  for (const std::string& line : sink.lines()) {
    if (line.rfind("{\"event\":\"checkpoint_saved\"", 0) != 0 &&
        line.rfind("{\"event\":\"resume\"", 0) != 0) {
      out.push_back(std::regex_replace(line, wall_clock, ""));
    }
  }
  return out;
}

// One engine with or without a checkpoint: a grid longer than one
// snapshot chunk emits the same stream either way — job indices run
// 0..N-1, and the training every job shares is observed once.
TEST(FaultCampaign, UncheckpointedGridTraceMatchesCheckpointed) {
  ThreadGuard guard;
  set_parallel_threads(2);
  FaultCampaignConfig cc = tiny_campaign();
  cc.replicates = 1;
  cc.base.lifetime.max_sessions = 1;
  cc.points.clear();
  for (std::size_t p = 0; p < 17; ++p) {
    FaultPoint point;
    point.label = "p" + std::to_string(p);
    point.faults.nonideal.stuck_off_fraction = 0.002 * static_cast<double>(p);
    cc.points.push_back(point);
  }
  const std::vector<std::string> plain = stripped_trace(cc);

  cc.checkpoint_path = ::testing::TempDir() + "xbarlife_ck_grid17.ckpt";
  std::remove(cc.checkpoint_path.c_str());
  std::remove((cc.checkpoint_path + ".bak").c_str());
  const std::vector<std::string> checkpointed = stripped_trace(cc);
  std::remove(cc.checkpoint_path.c_str());
  std::remove((cc.checkpoint_path + ".bak").c_str());

  std::size_t done = 0;
  std::size_t epochs = 0;
  for (const std::string& line : plain) {
    if (line.find("\"event\":\"sweep_job_done\"") != std::string::npos) {
      EXPECT_NE(line.find(",\"index\":" + std::to_string(done) + ","),
                std::string::npos)
          << line;
      ++done;
    }
    epochs += line.find("\"event\":\"train_epoch\"") != std::string::npos;
  }
  EXPECT_EQ(done, cc.points.size());
  EXPECT_EQ(epochs, cc.base.train_config.epochs);
  EXPECT_EQ(plain, checkpointed);
}

}  // namespace
}  // namespace xbarlife::core
