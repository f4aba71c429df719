// Runs the bad-input corpus (tests/bad_input/cases.txt): every line is a
// chaos_run or chaos_bench command that must be refused with exit status 1
// and exactly one non-empty line on stderr — never a CHECK abort, a signal
// or a hang. ctest passes the two binaries and the corpus directory as
// argv[1..3] (see tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

namespace {

std::string g_chaos_run;
std::string g_chaos_bench;
std::string g_corpus_dir;

// Single-quote a path for /bin/sh.
std::string ShellQuote(const std::string& s) {
  std::string quoted = "'";
  for (char c : s) {
    quoted += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  return quoted + "'";
}

TEST(BadInputTest, EveryCaseExitsOneWithOneStderrLine) {
  ASSERT_FALSE(g_corpus_dir.empty()) << "pass chaos_run, chaos_bench and the corpus directory";
  std::ifstream cases(g_corpus_dir + "/cases.txt");
  ASSERT_TRUE(cases.good()) << "no cases.txt in " << g_corpus_dir;
  const std::string err_path = ::testing::TempDir() + "/chaos_bad_input.err";
  int checked = 0;
  std::string line;
  while (std::getline(cases, line)) {
    if (line.empty() || line[0] == '#') {
      continue;
    }
    const size_t space = line.find(' ');
    const std::string program = line.substr(0, space);
    ASSERT_TRUE(program == "chaos_run" || program == "chaos_bench") << line;
    // The timeout turns a hang into a failed case instead of a stalled suite.
    const std::string cmd = "cd " + ShellQuote(g_corpus_dir) + " && timeout 120 " +
                            ShellQuote(program == "chaos_run" ? g_chaos_run : g_chaos_bench) +
                            line.substr(space) + " > /dev/null 2> " + ShellQuote(err_path);
    const int status = std::system(cmd.c_str());
    std::ifstream err(err_path);
    std::stringstream text;
    text << err.rdbuf();
    std::vector<std::string> err_lines;
    for (std::string l; std::getline(text, l);) {
      err_lines.push_back(l);
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
        << line << "\n  exit " << (WIFEXITED(status) ? WEXITSTATUS(status) : -1);
    EXPECT_TRUE(err_lines.size() == 1 && !err_lines[0].empty())
        << line << "\n  stderr:\n" << text.str();
    ++checked;
  }
  EXPECT_GT(checked, 0);
}

}  // namespace

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc > 3) {
    g_chaos_run = argv[1];
    g_chaos_bench = argv[2];
    g_corpus_dir = argv[3];
  }
  return RUN_ALL_TESTS();
}
