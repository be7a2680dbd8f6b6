// End-to-end CLI output-path tests: every subcommand that accepts the
// --json/--trace/--profile sink flags must fail fast with the IoError
// exit code (3) when the target path is unwritable — before any real
// work runs — and the --profile happy path must produce a Perfetto
// trace_event document.
//
// The binary path comes in via XBARLIFE_CLI_PATH (set in
// tests/CMakeLists.txt from $<TARGET_FILE:xbarlife_cli>).
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

constexpr const char* kUnwritable =
    "/nonexistent-xbarlife-dir/out.json";

std::string cli_path() { return XBARLIFE_CLI_PATH; }

/// Runs a shell command and returns its exit code (-1 when the shell
/// itself failed).
int exit_code_of(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
#ifdef _WIN32
  return status;
#else
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
}

/// Runs the CLI with `args`, discarding stdout/stderr, and returns its
/// exit code.
int run_cli(const std::string& args) {
  return exit_code_of(cli_path() + " " + args + " >/dev/null 2>&1");
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct SinkCase {
  const char* command;  ///< subcommand plus fast-run flags
  const char* flag;     ///< sink flag under test
};

std::string PrintToString(const SinkCase& c) {
  std::string name = std::string(c.command) + "_" + (c.flag + 2);
  for (char& ch : name) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) {
      ch = '_';
    }
  }
  return name;
}

class UnwritableSink : public ::testing::TestWithParam<SinkCase> {};

// Every sink is opened before the command does any work, so even the
// heavy subcommands fail in milliseconds.
TEST_P(UnwritableSink, FailsFastWithIoExitCode) {
  const SinkCase& c = GetParam();
  const int code = run_cli(std::string(c.command) + " " + c.flag + " " +
                           kUnwritable);
  EXPECT_EQ(code, 3) << "command: " << c.command << " " << c.flag;
}

INSTANTIATE_TEST_SUITE_P(
    AllCommands, UnwritableSink,
    ::testing::Values(
        SinkCase{"train", "--json"}, SinkCase{"train", "--trace"},
        SinkCase{"train", "--profile"},
        SinkCase{"lifetime", "--json"}, SinkCase{"lifetime", "--trace"},
        SinkCase{"lifetime", "--profile"},
        SinkCase{"sweep", "--json"}, SinkCase{"sweep", "--trace"},
        SinkCase{"sweep", "--profile"},
        SinkCase{"faults", "--json"}, SinkCase{"faults", "--trace"},
        SinkCase{"faults", "--profile"},
        SinkCase{"device", "--json"}, SinkCase{"device", "--trace"},
        SinkCase{"device", "--profile"},
        SinkCase{"models", "--json"}, SinkCase{"models", "--trace"},
        SinkCase{"models", "--profile"}),
    [](const ::testing::TestParamInfo<SinkCase>& info) {
      return PrintToString(info.param);
    });

TEST(CliOutput, UnknownCommandExitsUsage) {
  EXPECT_EQ(run_cli("frobnicate"), 2);
}

// Numeric flags fail closed: a sign on a count, trailing characters,
// overflow, NaN/inf or a missing value is a usage error (exit 2) whose
// message names the flag — never a wrapped count that runs for ever or a
// silently parsed prefix. `timeout` turns a hang into a failure.
TEST(CliOutput, NumericFlagsFailClosed) {
  const std::string err = ::testing::TempDir() + "xbarlife_cli_numeric.err";
  const struct {
    const char* flag;
    const char* value;
  } cases[] = {{"pulses", "-1"},       {"pulses", "5abc"},
               {"pulses", ""},         {"pulses", "abc"},
               {"pulses", "+5"},       {"pulses", "18446744073709551616"},
               {"target-r", "nan"},    {"target-r", "inf"},
               {"target-r", "1e999"},  {"target-r", "3e4x"}};
  for (const auto& c : cases) {
    const std::string args = std::string("device --") + c.flag + " " + c.value;
    EXPECT_EQ(exit_code_of("timeout 10 " + cli_path() + " " + args +
                           " >/dev/null 2>" + err),
              2)
        << args;
    EXPECT_NE(slurp(err).find(std::string("--") + c.flag), std::string::npos)
        << args << ": " << slurp(err);
  }
  EXPECT_EQ(run_cli("device --pulses 3 --target-r 2.5e4"), 0);
}

// An impossibly small --job-timeout expires every job instantly: the
// sweep still completes with isolated timed-out failures (exit 0), but
// --strict must trip on them like any other failure (exit 4).
TEST(CliOutput, StrictTripsOnTimedOutSweepJobs) {
  const std::string cmd =
      "sweep --model mlp --sessions 1 --replicates 1 --job-timeout 0.001";
  EXPECT_EQ(run_cli(cmd), 0);
  EXPECT_EQ(run_cli(cmd + " --strict"), 4);
}

// A grid checkpoint pins every job's config: reusing a finished mlp
// sweep's snapshot for a LeNet-5 sweep fails closed with the IoError
// exit code instead of "restoring" foreign entries.
TEST(CliOutput, SweepCheckpointFromAnotherModelExitsIo) {
  const std::string ckpt = ::testing::TempDir() + "xbarlife_cli_model.ckpt";
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".bak").c_str());
  const std::string cmd =
      "sweep --sessions 1 --replicates 1 --checkpoint " + ckpt;
  EXPECT_EQ(run_cli(cmd + " --model mlp"), 0);
  EXPECT_EQ(run_cli(cmd + " --model lenet5"), 3);
  std::remove(ckpt.c_str());
  std::remove((ckpt + ".bak").c_str());
}

// `train --checkpoint` runs the same training as a plain `train`: both
// write byte-identical weights, and rerunning the finished checkpointed
// command (a resume with no epoch left) writes the same bytes again.
TEST(CliOutput, CheckpointedTrainWritesThePlainRunsWeights) {
  const std::string dir = ::testing::TempDir();
  const std::string plain_out = dir + "/xbarlife_train_plain.bin";
  const std::string ckpt_out = dir + "/xbarlife_train_ckpt.bin";
  const std::string ckpt = dir + "/xbarlife_train.ckpt";
  const auto clean = [&] {
    for (const std::string& path :
         {plain_out, ckpt_out, ckpt, ckpt + ".bak"}) {
      std::remove(path.c_str());
    }
  };
  for (const std::string flavour : {"", " --skewed"}) {
    SCOPED_TRACE("train --model mlp" + flavour);
    clean();
    const std::string train = "train --model mlp" + flavour;
    ASSERT_EQ(run_cli(train + " --out " + plain_out), 0);
    const std::string weights = slurp(plain_out);
    ASSERT_FALSE(weights.empty());
    const std::string checkpointed =
        train + " --checkpoint " + ckpt + " --out " + ckpt_out;
    ASSERT_EQ(run_cli(checkpointed), 0);
    EXPECT_EQ(slurp(ckpt_out), weights);
    std::remove(ckpt_out.c_str());
    ASSERT_EQ(run_cli(checkpointed), 0);
    EXPECT_EQ(slurp(ckpt_out), weights);
  }
  clean();
}

// Outside a fan-out there is no entry to isolate the failure into: an
// expired lifetime deadline propagates as TimeoutError (exit 8).
TEST(CliOutput, LifetimeWatchdogExpiryExitsTimeout) {
  EXPECT_EQ(
      run_cli("lifetime --model mlp --sessions 1 --job-timeout 0.001"), 8);
}

TEST(CliOutput, DeviceProfileWritesPerfettoDocument) {
  const std::string path =
      ::testing::TempDir() + "/xbarlife_device_profile.json";
  std::remove(path.c_str());
  ASSERT_EQ(run_cli("device --pulses 5 --profile " + path), 0);
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty()) << "no profile written to " << path;
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(text.find("\"schema\":\"xbarlife.profile.v1\""),
            std::string::npos);
  // The command-level root span names the subcommand.
  EXPECT_NE(text.find("\"name\":\"cmd.device\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(CliOutput, DeviceJsonEmbedsProfileKeyWhenProfiling) {
  const std::string json = ::testing::TempDir() + "/xbarlife_device.jsonl";
  const std::string prof =
      ::testing::TempDir() + "/xbarlife_device_prof.json";
  std::remove(json.c_str());
  std::remove(prof.c_str());
  ASSERT_EQ(run_cli("device --pulses 5 --json " + json + " --profile " +
                    prof),
            0);
  const std::string text = slurp(json);
  ASSERT_FALSE(text.empty());
  // Final line is the result document; the profile rollup rides as its
  // trailing key.
  EXPECT_NE(text.find("\"schema\":\"xbarlife.result.v1\""),
            std::string::npos);
  EXPECT_NE(text.find("\"profile\":{\"span_count\":"), std::string::npos);
  std::remove(json.c_str());
  std::remove(prof.c_str());
}

TEST(CliOutput, DeviceJsonWithoutProfileHasNoProfileKey) {
  const std::string json =
      ::testing::TempDir() + "/xbarlife_device_noprof.jsonl";
  std::remove(json.c_str());
  ASSERT_EQ(run_cli("device --pulses 5 --json " + json), 0);
  const std::string text = slurp(json);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.find("\"profile\""), std::string::npos);
  std::remove(json.c_str());
}

// Unknown executor backends exit with the usage code, whether they come
// from the flag or the environment, and the message lists the usable
// names (not asserted here — run_cli discards output).
TEST(CliOutput, UnknownExecutorExitsUsage) {
  EXPECT_EQ(run_cli("device --pulses 5 --executor warpdrive"), 2);
  const std::string cmd = "XBARLIFE_EXECUTOR=warpdrive " + cli_path() +
                          " device --pulses 5 >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
#ifndef _WIN32
  EXPECT_EQ(WIFEXITED(status) ? WEXITSTATUS(status) : -1, 2);
#endif
}

// The executor backend is a pure implementation choice: the same run
// under --executor sim and --executor percell must produce identical
// result streams except for the envelope's own "executor" stamp.
TEST(CliOutput, ExecutorBackendsProduceIdenticalResultsModuloStamp) {
  const std::string sim_json = ::testing::TempDir() + "/xbarlife_sim.jsonl";
  const std::string per_json =
      ::testing::TempDir() + "/xbarlife_percell.jsonl";
  std::remove(sim_json.c_str());
  std::remove(per_json.c_str());
  ASSERT_EQ(run_cli("device --pulses 50 --executor sim --json " + sim_json),
            0);
  ASSERT_EQ(run_cli("device --pulses 50 --executor percell --json " +
                    per_json),
            0);
  std::string sim_text = slurp(sim_json);
  std::string per_text = slurp(per_json);
  ASSERT_FALSE(sim_text.empty());
  ASSERT_FALSE(per_text.empty());
  EXPECT_NE(sim_text.find("\"executor\":\"sim\""), std::string::npos);
  EXPECT_NE(per_text.find("\"executor\":\"percell\""), std::string::npos);
  const auto unstamp = [](std::string text, const std::string& name) {
    const std::string needle = "\"executor\":\"" + name + "\"";
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos)) {
      text.replace(pos, needle.size(), "\"executor\":\"*\"");
    }
    return text;
  };
  EXPECT_EQ(unstamp(sim_text, "sim"), unstamp(per_text, "percell"));
  std::remove(sim_json.c_str());
  std::remove(per_json.c_str());
}

TEST(CliOutput, ProfileEnvVarEnablesProfiling) {
  const std::string path =
      ::testing::TempDir() + "/xbarlife_env_profile.json";
  std::remove(path.c_str());
  const std::string cmd = "XBARLIFE_PROFILE=" + path + " " + cli_path() +
                          " device --pulses 5 >/dev/null 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::string text = slurp(path);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
