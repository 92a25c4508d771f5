// Exit-code contract for the CLIs. A command must never exit 0 after
// failing to write a file the user asked for: writes go through
// util::atomic_file, so an unwritable path surfaces at flush time — this
// forks the real binary and checks the distinct write-failed exit code
// (6) for --out and --metrics-out, and that successful runs actually
// leave the artifact behind. A malformed numeric flag exits 2 in both
// vpctl and vpd.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

namespace {

constexpr int kUsageExit = 2;
constexpr int kResumedExit = 3;
constexpr int kWriteFailedExit = 6;
constexpr int kInterruptedExit = 7;

std::string test_dir() {
  static const std::string dir = [] {
    std::string d =
        "/tmp/vp_cli_exit_" + std::to_string(static_cast<long>(getpid()));
    mkdir(d.c_str(), 0755);
    return d;
  }();
  return dir;
}

/// Runs `binary` with the given arguments, optionally with an environment
/// prefix (e.g. the journal fault hooks); returns the exit code.
int run_binary(const char* binary, const std::string& args,
               const std::string& env = "") {
  const std::string cmd =
      env + std::string{binary} + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int run_vpctl(const std::string& args, const std::string& env = "") {
  return run_binary(VPCTL_PATH, args, env);
}

int run_vpd(const std::string& args) { return run_binary(VPD_PATH, args); }

bool file_exists(const std::string& path) {
  return std::ifstream{path}.good();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string{std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>()};
}

// A path whose parent directory does not exist; atomic_write_file cannot
// even create its temp file there.
std::string unwritable(const std::string& leaf) {
  return test_dir() + "/no-such-dir/" + leaf;
}

const std::string kScan = "scan --scale 0.03 --seed 5";

TEST(CliExit, ScanOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl(kScan + " --out " + unwritable("c.csv")),
            kWriteFailedExit);
}

TEST(CliExit, MetricsOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl(kScan + " --metrics-out " + unwritable("m.json")),
            kWriteFailedExit);
}

TEST(CliExit, ExportLoadUnwritableExits6) {
  EXPECT_EQ(run_vpctl("export-load --scale 0.03 --out " + unwritable("l.csv")),
            kWriteFailedExit);
}

TEST(CliExit, CampaignOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl("campaign --scale 0.03 --rounds 2 --out " +
                      unwritable("all.csv")),
            kWriteFailedExit);
}

TEST(CliExit, WritablePathsExitZeroAndLeaveArtifacts) {
  const std::string csv = test_dir() + "/c.csv";
  const std::string json = test_dir() + "/m.json";
  const std::string prom = test_dir() + "/m.prom";
  ASSERT_EQ(run_vpctl(kScan + " --out " + csv + " --metrics-out " + json), 0);
  EXPECT_TRUE(file_exists(csv));
  EXPECT_TRUE(file_exists(json));
  ASSERT_EQ(run_vpctl(kScan + " --no-metrics --metrics-out " + prom), 0);
  EXPECT_TRUE(file_exists(prom));
}

TEST(CliExit, MalformedIntegerFlagsExit2) {
  // Integer flags parse the whole token and range-check it: -1 rounds
  // used to wrap to 4294967295 and die allocating, "abc" threads used to
  // read as 0 (= every hardware thread).
  EXPECT_EQ(run_vpctl("campaign --scale 0.03 --rounds -1"), kUsageExit);
  EXPECT_EQ(run_vpctl(kScan + " --threads abc"), kUsageExit);
}

TEST(CliExit, MalformedFloatFlagsExit2) {
  // Floating-point flags are as strict: the whole token must be a finite
  // number in range, so "abc" is not scale 0 and a NaN timeout never
  // reaches a NaN-to-integer conversion. A finite in-range value runs.
  EXPECT_EQ(run_vpctl("scan --scale abc"), kUsageExit);
  EXPECT_EQ(run_vpctl(kScan + " --timeout-ms nan --retries 2"), kUsageExit);
  EXPECT_EQ(run_vpctl(kScan + " --timeout-ms 500 --retries 2"), 0);
}

TEST(CliExit, VpdMalformedNumericFlagsExit2) {
  // vpd shares vpctl's parser, so a port above 65535 or a negative
  // thread count is refused (not wrapped) before the Internet is built;
  // a valid batch run still exits 0.
  EXPECT_EQ(run_vpd("--scale 0.03 --rounds 1 --listen 70000 "
                    "--exit-after-rounds"),
            kUsageExit);
  EXPECT_EQ(run_vpd("--scale 0.03 --rounds 1 --threads -1"), kUsageExit);
  EXPECT_EQ(run_vpd("--scale abc --rounds 1"), kUsageExit);
  EXPECT_EQ(run_vpd("--scale 0.03 --rounds 1 --exit-after-rounds"), 0);
}

TEST(CliExit, PrependDepthMustBeAWholeIntegerInRange) {
  for (const char* bad : {"LAX=abc", "LAX=-5", "LAX=2x"})
    EXPECT_EQ(run_vpctl(kScan + " --prepend " + bad), kUsageExit) << bad;
  EXPECT_EQ(run_vpctl(kScan + " --prepend LAX=2"), 0);
}

TEST(CliExit, PlaybookOutUnwritableExits6) {
  EXPECT_EQ(run_vpctl("playbook --scale 0.03 --attack polarized --top 2 "
                      "--out " +
                      unwritable("p.csv")),
            kWriteFailedExit);
}

TEST(CliExit, PlaybookNoRouteCacheIsByteIdentical) {
  // --no-route-cache reaches the optimizer path: every candidate is
  // routed and scored from scratch instead of through the incremental
  // delta session. The artifact must not change by a byte.
  const std::string cached = test_dir() + "/playbook_cached.csv";
  const std::string uncached = test_dir() + "/playbook_uncached.csv";
  const std::string common =
      "playbook --scale 0.03 --attack polarized,spoofed --magnitude 2 "
      "--max-prepend 2 --top 4 --threads 2 ";
  ASSERT_EQ(run_vpctl(common + "--out " + cached), 0);
  ASSERT_EQ(run_vpctl(common + "--no-route-cache --out " + uncached), 0);
  const std::string a = read_file(cached);
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, read_file(uncached));
}

TEST(CliExit, JournalUnwritableMidCampaignExits6) {
  // VP_JOURNAL_FAIL_AT=2 fails every frame write from the first round
  // append on — the signature of the journal directory going unwritable
  // (disk full, read-only remount) mid-campaign. The campaign must
  // surface that as the write-failure exit code, never exit 0 after
  // silently dropping frames.
  const std::string journal = test_dir() + "/fail_mid.bin";
  EXPECT_EQ(run_vpctl("campaign --scale 0.03 --rounds 3 --seed 5 --journal " +
                          journal,
                      "VP_JOURNAL_FAIL_AT=2 "),
            kWriteFailedExit);
  std::remove(journal.c_str());
}

/// Forks vpctl campaign, delivers `signum` once `when` says so, and
/// returns the exit code (or -1 on signal death).
int run_vpctl_signalled(const std::vector<std::string>& args, int signum,
                        const std::function<bool()>& when) {
  const pid_t pid = fork();
  if (pid == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    ::dup2(null_fd, 1);
    ::dup2(null_fd, 2);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(VPCTL_PATH));
    for (const std::string& arg : args)
      argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    ::execv(VPCTL_PATH, argv.data());
    ::_exit(127);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds{60};
  while (!when() && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds{5});
  ::kill(pid, signum);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::uint64_t file_size(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0
             ? static_cast<std::uint64_t>(st.st_size)
             : 0;
}

TEST(CliExit, SigintEarlyInCampaignExits7AndLeavesResumablePrefix) {
  // Interrupt as soon as the journal file appears (the campaign has just
  // opened it; the signal handler went in before the scenario build).
  // Whatever prefix of rounds got in, the exit code is the distinct
  // interrupted one and the journal resumes into a complete campaign.
  // The 100-round budget (about 2 ms a round at this scale) keeps the
  // campaign running for ~200 ms after the journal appears, far beyond
  // the 5 ms poll even on a loaded machine, so the signal always lands
  // mid-campaign.
  const std::string journal = test_dir() + "/sigint_early.bin";
  const std::string csv = test_dir() + "/sigint_early.csv";
  const std::vector<std::string> args = {
      "campaign", "--scale", "0.03", "--rounds", "100", "--seed",  "5",
      "--journal", journal,  "--out", csv};
  EXPECT_EQ(run_vpctl_signalled(args, SIGINT,
                                [&journal] { return file_exists(journal); }),
            kInterruptedExit);
  // An interrupted campaign must not write the all-rounds CSV (it would
  // be missing rounds).
  EXPECT_FALSE(file_exists(csv));

  std::string resume;
  for (const std::string& arg : args) resume += arg + " ";
  EXPECT_EQ(run_vpctl(resume + "--resume"), kResumedExit);
  EXPECT_TRUE(file_exists(csv));
  std::remove(journal.c_str());
  std::remove(csv.c_str());
}

TEST(CliExit, SigintMidCampaignFinishesInFlightRoundThenExits7) {
  // Interrupt once the first round's journal append has landed: the
  // in-flight round completes (the journal stays a clean prefix) and a
  // resume finishes the campaign producing the same artifact as an
  // uninterrupted run.
  const std::string journal = test_dir() + "/sigint_mid.bin";
  const std::string csv = test_dir() + "/sigint_mid.csv";
  const std::string base_journal = test_dir() + "/sigint_base.bin";
  const std::string base_csv = test_dir() + "/sigint_base.csv";
  const std::string common =
      "campaign --scale 0.03 --rounds 8 --seed 5 ";
  ASSERT_EQ(run_vpctl(common + "--journal " + base_journal + " --out " +
                      base_csv),
            0);

  const std::vector<std::string> args = {
      "campaign", "--scale", "0.03", "--rounds", "8", "--seed",    "5",
      "--journal", journal,  "--out", csv};
  // A manifest-only journal is a few dozen bytes; any size beyond 1 KB
  // means at least one round record was appended.
  const int rc = run_vpctl_signalled(args, SIGINT, [&journal] {
    return file_size(journal) > 1024;
  });
  EXPECT_EQ(rc, kInterruptedExit);
  EXPECT_FALSE(file_exists(csv));

  std::string resume;
  for (const std::string& arg : args) resume += arg + " ";
  EXPECT_EQ(run_vpctl(resume + "--resume"), kResumedExit);
  EXPECT_EQ(read_file(csv), read_file(base_csv));
  for (const std::string& path : {journal, csv, base_journal, base_csv})
    std::remove(path.c_str());
}

TEST(CliExit, MetricsFailureDoesNotMaskJournalRefusal) {
  // A campaign refused for journal fingerprint mismatch must keep exit 4
  // even when --metrics-out is also unwritable: the more specific
  // failure wins.
  const std::string journal = test_dir() + "/j.bin";
  ASSERT_EQ(run_vpctl("campaign --scale 0.03 --rounds 2 --seed 5 --journal " +
                      journal),
            0);
  EXPECT_EQ(run_vpctl("campaign --scale 0.03 --rounds 3 --seed 5 --journal " +
                      journal + " --resume --metrics-out " +
                      unwritable("m.json")),
            4);
}

}  // namespace
