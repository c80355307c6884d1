// Minimal shared CLI convention for bench/ and examples/ binaries: every
// binary answers `--help`/`-h` with its usage text and exit code 0, so CI can
// smoke-invoke all of them without running a full benchmark; dataset-aware
// binaries accept the same `--dataset-dir` override of $PARCYCLE_DATASET_DIR.
#pragma once

#include <charconv>
#include <cstring>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

namespace parcycle {

// Prints `usage` and returns true when argv contains --help or -h. Callers
// return 0 from main() immediately in that case.
inline bool help_requested(int argc, char** argv, const char* usage) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0 || std::strcmp(argv[i], "-h") == 0) {
      std::cout << usage;
      return true;
    }
  }
  return false;
}

// Scans argv for `<name> <value>`; returns the value or "" when absent
// (json_output_path delegates here). Mains that loop over argv themselves
// still skip the flag and its argument in their loops.
inline std::string cli_option_value(int argc, char** argv, const char* name) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return argv[i + 1];
    }
  }
  return {};
}

// Shared `--dataset-dir <dir>` flag: explicit value wins over the
// $PARCYCLE_DATASET_DIR environment variable (read by the caller via
// dataset_dir_from_env() when this returns "").
inline std::string dataset_dir_from_cli(int argc, char** argv) {
  return cli_option_value(argc, argv, "--dataset-dir");
}

// Largest worker count a `--threads` flag accepts: the paper's largest
// thread count.
inline constexpr unsigned kMaxThreadCount = 1024;

// Parses a `--threads` value: comma-separated worker counts, each in
// 1..kMaxThreadCount. On an empty entry, a non-number or a count out of
// range, returns false with the reason in *error; callers exit 2.
inline bool parse_thread_counts(std::string_view text,
                                std::vector<unsigned>* counts,
                                std::string* error) {
  counts->clear();
  std::size_t pos = 0;
  while (true) {
    const std::size_t comma = text.find(',', pos);
    const std::string_view token =
        text.substr(pos, comma == std::string_view::npos ? comma : comma - pos);
    const char* end = token.data() + token.size();
    unsigned value = 0;
    const auto [ptr, ec] = std::from_chars(token.data(), end, value);
    if (token.empty() || ec != std::errc() || ptr != end || value < 1 ||
        value > kMaxThreadCount) {
      *error = "invalid thread count '" + std::string(token) +
               "' in --threads " + std::string(text) + " (use 1..1024)";
      return false;
    }
    counts->push_back(value);
    if (comma == std::string_view::npos) {
      return true;
    }
    pos = comma + 1;
  }
}

}  // namespace parcycle
