// Fire/silent tests for each sgp-lint rule. Every rule gets at least one
// case proving it fires on a violation and one proving it stays silent on
// compliant code — including the tokenizer-backed negatives where the
// banned pattern sits inside a comment or string literal.
#include "analysis/rules.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace sgp::analysis {
namespace {

std::vector<Finding> lint_text(const std::string& path,
                               const std::string& text,
                               const std::vector<std::string>& rules = {}) {
  return run_rules(SourceFile{path, text}, default_rule_options(), rules);
}

std::size_t count_rule(const std::vector<Finding>& fs, std::string_view id) {
  std::size_t n = 0;
  for (const auto& f : fs) n += (f.rule == id) ? 1 : 0;
  return n;
}

// --- R1 rng-discipline ------------------------------------------------------

TEST(RuleR1Test, FiresOnStdEngineOutsideRandomDir) {
  const auto fs = lint_text("src/core/x.cpp", "std::mt19937 gen(42);");
  ASSERT_EQ(count_rule(fs, "R1"), 1u);
  EXPECT_EQ(fs[0].snippet, "mt19937");
  EXPECT_EQ(fs[0].line, 1);
}

TEST(RuleR1Test, FiresOnCRandCall) {
  const auto fs = lint_text("src/core/x.cpp", "int v = rand();");
  EXPECT_EQ(count_rule(fs, "R1"), 1u);
}

TEST(RuleR1Test, FiresOnIncludeRandom) {
  const auto fs = lint_text("src/core/x.cpp", "#include <random>\n");
  ASSERT_EQ(count_rule(fs, "R1"), 1u);
  EXPECT_EQ(fs[0].snippet, "<random>");
}

TEST(RuleR1Test, SilentInsideSrcRandom) {
  EXPECT_TRUE(lint_text("src/random/engine.cpp",
                        "#include <random>\nstd::mt19937 gen; rand();")
                  .empty());
}

TEST(RuleR1Test, SilentOnCommentAndStringMentions) {
  const std::string text =
      "// replacement for std::mt19937 and rand()\n"
      "/* #include <random> */\n"
      "const char* why = \"no mt19937, no rand() here\";\n";
  EXPECT_TRUE(lint_text("src/core/x.cpp", text).empty());
}

TEST(RuleR1Test, SilentOnMemberNamedRand) {
  // obj.rand() and ptr->rand() are someone else's API, not the C library.
  EXPECT_TRUE(
      lint_text("src/core/x.cpp", "obj.rand(); ptr->rand();").empty());
}

TEST(RuleR1Test, FiresOnHardwareEntropyEvenInsideSrcRandom) {
  // rdrand/rdseed are not exempt in the RNG home directory: a release must
  // regenerate from (seed, counter) alone on any machine.
  const auto fs = lint_text("src/random/counter_rng_avx2.cpp",
                            "unsigned long long v; _rdrand64_step(&v);");
  ASSERT_EQ(count_rule(fs, "R1"), 1u);
  EXPECT_EQ(fs[0].snippet, "_rdrand64_step");
  EXPECT_EQ(count_rule(lint_text("src/core/x.cpp",
                                 "__builtin_ia32_rdseed32_step(&v);"),
                       "R1"),
            1u);
}

TEST(RuleR1Test, FiresOnIntrinsicHeaderOutsideSrcRandom) {
  const auto fs =
      lint_text("src/linalg/fast.cpp", "#include <immintrin.h>\n");
  ASSERT_EQ(count_rule(fs, "R1"), 1u);
  EXPECT_EQ(fs[0].snippet, "<immintrin.h>");
  EXPECT_EQ(count_rule(lint_text("src/core/x.cpp",
                                 "#include <x86intrin.h>\n"),
                       "R1"),
            1u);
}

TEST(RuleR1Test, IntrinsicHeaderAllowedInsideSrcRandom) {
  // The dispatched kernel TUs are the one place vector intrinsics belong.
  EXPECT_TRUE(lint_text("src/random/counter_rng_avx512.cpp",
                        "#include <immintrin.h>\n")
                  .empty());
  // ...and a comment or string mention fires nowhere.
  EXPECT_TRUE(lint_text("src/core/x.cpp",
                        "// no #include <immintrin.h> outside random\n"
                        "const char* s = \"_rdrand64_step\";\n")
                  .empty());
}

// --- R2 error-taxonomy ------------------------------------------------------

TEST(RuleR2Test, FiresOnBareStdThrowInSrc) {
  const auto fs = lint_text("src/core/x.cpp",
                            "throw std::runtime_error(\"boom\");");
  ASSERT_EQ(count_rule(fs, "R2"), 1u);
  EXPECT_EQ(fs[0].snippet, "std::runtime_error");
}

TEST(RuleR2Test, FiresOnBareInvalidArgument) {
  const auto fs = lint_text("src/util/cli.cpp",
                            "throw std::invalid_argument(\"usage\");");
  EXPECT_EQ(count_rule(fs, "R2"), 1u);
}

TEST(RuleR2Test, SilentInTaxonomyHome) {
  const std::string text = "throw std::runtime_error(msg);";
  EXPECT_TRUE(lint_text("src/util/errors.hpp", text, {"R2"}).empty());
  EXPECT_TRUE(lint_text("src/util/check.hpp", text, {"R2"}).empty());
}

TEST(RuleR2Test, SilentOutsideLibraryScope) {
  // Tests may throw whatever they like.
  EXPECT_TRUE(lint_text("tests/core/x_test.cpp",
                        "throw std::runtime_error(\"boom\");")
                  .empty());
}

TEST(RuleR2Test, SilentOnTypedTaxonomyThrow) {
  EXPECT_TRUE(lint_text("src/core/x.cpp",
                        "throw util::ConvergenceError(\"no\");")
                  .empty());
}

TEST(RuleR2Test, SilentWhenThrowMentionedInString) {
  EXPECT_TRUE(lint_text("src/core/x.cpp",
                        "log(\"throw std::runtime_error here\");")
                  .empty());
}

TEST(RuleR2Test, FiresOnToolMainWithoutRunTool) {
  const auto fs = lint_text("tools/bad.cpp",
                            "int main(int argc, char** argv) { return 0; }");
  ASSERT_EQ(count_rule(fs, "R2"), 1u);
  EXPECT_EQ(fs[0].snippet, "main");
}

TEST(RuleR2Test, SilentOnToolMainRoutedThroughRunTool) {
  EXPECT_TRUE(lint_text("tools/good.cpp",
                        "int main(int argc, char** argv) {\n"
                        "  return sgp::tools::run_tool(argc, argv, body);\n"
                        "}")
                  .empty());
}

// --- R3 metric-registry -----------------------------------------------------

TEST(RuleR3Test, FiresOnUnregisteredCounterName) {
  const auto fs = lint_text("src/core/x.cpp",
                            "obs::counter(\"publish.typo\").add();");
  ASSERT_EQ(count_rule(fs, "R3"), 1u);
  EXPECT_EQ(fs[0].snippet, "publish.typo");
}

TEST(RuleR3Test, FiresOnUnregisteredTimerName) {
  const auto fs = lint_text(
      "src/core/x.cpp", "obs::ScopedTimer timer(\"publish.unknown\");");
  EXPECT_EQ(count_rule(fs, "R3"), 1u);
}

TEST(RuleR3Test, FiresOnUnregisteredSpanTemporary) {
  const auto fs =
      lint_text("src/core/x.cpp", "obs::Span(\"mystery.span\");");
  EXPECT_EQ(count_rule(fs, "R3"), 1u);
}

TEST(RuleR3Test, SilentOnCanonicalNames) {
  const std::string text =
      "obs::counter(\"publish.releases\").add();\n"
      "obs::gauge(\"publish.sigma\").set(1);\n"
      "obs::histogram(\"ledger.append.seconds\").record(x);\n"
      "obs::Span span(\"publish\");\n";
  EXPECT_TRUE(lint_text("src/core/x.cpp", text).empty());
}

TEST(RuleR3Test, SilentOnRuntimeAssembledName) {
  // "tool." + task is out of a static checker's reach; must not fire.
  EXPECT_TRUE(lint_text("tools/x.cpp",
                        "obs::ScopedTimer t(\"tool.\" + task);")
                  .empty());
}

TEST(RuleR3Test, SilentOutsideLibraryScope) {
  EXPECT_TRUE(lint_text("tests/obs/x_test.cpp",
                        "obs::counter(\"test.metrics.adhoc\");")
                  .empty());
}

TEST(RuleR3Test, SilentInMetricNamesHeaderItself) {
  EXPECT_TRUE(lint_text("src/obs/metric_names.hpp",
                        "counter(\"anything.goes\")", {"R3"})
                  .empty());
}

// --- R4 header-hygiene ------------------------------------------------------

TEST(RuleR4Test, FiresOnMissingPragmaOnce) {
  const auto fs = lint_text("src/core/x.hpp", "int f();\n");
  ASSERT_EQ(count_rule(fs, "R4"), 1u);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[0].snippet, "#pragma once");
}

TEST(RuleR4Test, FiresOnUsingNamespaceInHeader) {
  const auto fs = lint_text(
      "src/core/x.hpp", "#pragma once\nusing namespace std;\n");
  ASSERT_EQ(count_rule(fs, "R4"), 1u);
  EXPECT_EQ(fs[0].snippet, "using namespace");
  EXPECT_EQ(fs[0].line, 2);
}

TEST(RuleR4Test, SilentOnCleanHeader) {
  EXPECT_TRUE(lint_text("src/core/x.hpp",
                        "#pragma once\nnamespace sgp { int f(); }\n")
                  .empty());
}

TEST(RuleR4Test, SilentOnSourceFiles) {
  // .cpp files may use `using namespace` locally; the rule is header-only.
  EXPECT_TRUE(
      lint_text("src/core/x.cpp", "using namespace std::chrono;").empty());
}

TEST(RuleR4Test, SilentWhenUsingNamespaceOnlyInComment) {
  EXPECT_TRUE(lint_text("src/core/x.hpp",
                        "#pragma once\n// never `using namespace` here\n")
                  .empty());
}

// --- R5 privacy-literals ----------------------------------------------------

TEST(RuleR5Test, FiresOnEpsilonLiteralOutsideDp) {
  const auto fs =
      lint_text("src/core/x.cpp", "double epsilon = 1.5;");
  ASSERT_EQ(count_rule(fs, "R5"), 1u);
  EXPECT_EQ(fs[0].snippet, "epsilon = 1.5");
}

TEST(RuleR5Test, FiresOnBraceInitAndCompoundNames) {
  const auto fs = lint_text("src/core/x.cpp",
                            "double noise_sigma{0.75};\n"
                            "double kDeltaSplit = 0.5;\n");
  EXPECT_EQ(count_rule(fs, "R5"), 2u);
}

TEST(RuleR5Test, SilentInsideSrcDp) {
  EXPECT_TRUE(lint_text("src/dp/defaults.hpp",
                        "#pragma once\nconstexpr double kDefaultEpsilon = "
                        "1.0;\n")
                  .empty());
}

TEST(RuleR5Test, SilentOnZeroInit) {
  EXPECT_TRUE(
      lint_text("src/core/x.cpp", "double epsilon = 0.0;").empty());
}

TEST(RuleR5Test, SilentOnNonFloatAssignment) {
  // Assigning another variable (or an int count) is not a hard-coded
  // privacy parameter.
  EXPECT_TRUE(lint_text("src/core/x.cpp",
                        "double epsilon = opts.epsilon;\n"
                        "int sigma_buckets = 4;\n")
                  .empty());
}

TEST(RuleR5Test, SilentOnCommentedLiteral) {
  EXPECT_TRUE(lint_text("src/core/x.cpp",
                        "// typical choice: epsilon = 1.5\n")
                  .empty());
}

// --- run_rules plumbing -----------------------------------------------------

TEST(RunRulesTest, RuleFilterSelectsSubset) {
  const std::string text =
      "std::mt19937 gen;\nthrow std::runtime_error(\"x\");\n";
  const auto all = lint_text("src/core/x.cpp", text);
  EXPECT_EQ(count_rule(all, "R1"), 1u);
  EXPECT_EQ(count_rule(all, "R2"), 1u);
  const auto only_r2 = lint_text("src/core/x.cpp", text, {"R2"});
  EXPECT_EQ(count_rule(only_r2, "R1"), 0u);
  EXPECT_EQ(count_rule(only_r2, "R2"), 1u);
}

// --- R8 clause (d): one calibration site -----------------------------------

TEST(R8CalibrationSiteTest, OnlyCoreCalibrateMayCallCalibrateNoise) {
  const std::string text =
      "NoiseCalibration calibrate(const Options& options) {\n"
      "  return calibrate_noise(options.projection_dim, options.params);\n"
      "}\n";
  EXPECT_TRUE(lint_text("src/core/publisher.cpp", text, {"R8"}).empty());
  const auto fs = lint_text("src/core/session.cpp", text, {"R8"});
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].snippet, "calibrate_noise");
  EXPECT_EQ(fs[0].line, 2);
  // R8 is scoped to src/: tests and benches may calibrate directly.
  EXPECT_TRUE(lint_text("tests/core/x.cpp", text, {"R8"}).empty());
  // A mention in a comment or string is not a call.
  EXPECT_TRUE(lint_text("src/core/x.cpp",
                        "void f() { log(\"calibrate_noise(\"); }  "
                        "// calibrate_noise(m)\n",
                        {"R8"})
                  .empty());
}

TEST(RunRulesTest, FindingsAreSorted) {
  const std::string text =
      "throw std::runtime_error(\"x\");\nstd::mt19937 gen;\n";
  const auto fs = lint_text("src/core/x.cpp", text);
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(finding_less(fs[0], fs[1]));
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
}

TEST(RunRulesTest, PathScopingIsRootRelative) {
  // The same text is a violation in src/ but not in bench/.
  const std::string text = "std::mt19937 gen;";
  EXPECT_EQ(lint_text("src/core/x.cpp", text).size(), 1u);
  // R1 applies everywhere except src/random/ — bench code must also use
  // the counter RNG.
  EXPECT_EQ(lint_text("bench/x.cpp", text).size(), 1u);
  EXPECT_TRUE(lint_text("src/random/x.cpp", text).empty());
}

}  // namespace
}  // namespace sgp::analysis
