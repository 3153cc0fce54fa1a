// Shared helpers for declsched test suites.

#ifndef DECLSCHED_TESTS_TEST_UTIL_H_
#define DECLSCHED_TESTS_TEST_UTIL_H_

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sql/engine.h"
#include "storage/catalog.h"

namespace declsched::testing {

/// A fresh directory in the working directory, named `<prefix>_tmp_<pid>_<n>`
/// and removed with everything in it when this goes out of scope. Converts
/// to its path, so it passes wherever a directory string is expected.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix) {
    static std::atomic<int> counter{0};
    path_ = prefix + "_tmp_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1));
    std::filesystem::create_directory(path_);
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }
  operator const std::string&() const { return path_; }  // NOLINT

 private:
  std::string path_;
};

/// The default seed matrix of a seeded suite, plus every seed in the
/// environment variable `name` (comma-separated decimal integers, spaces
/// around a token allowed), so CI can widen the matrix and a failing seed
/// replays alone. Defaults always run; a seed listed twice runs once. A
/// malformed token (empty, non-numeric, trailing garbage, out of range)
/// fails the calling test instead of being dropped or run as seed 0.
inline std::vector<uint64_t> SeedsFromEnv(const char* name,
                                          std::vector<uint64_t> defaults) {
  std::vector<uint64_t> seeds = std::move(defaults);
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') return seeds;
  const std::string spec(env);
  size_t pos = 0;
  while (pos <= spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    std::string token = spec.substr(pos, comma - pos);
    token.erase(0, token.find_first_not_of(' '));
    token.erase(token.find_last_not_of(' ') + 1);
    errno = 0;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
    if (token.empty() || token[0] == '-' || end == nullptr || *end != '\0' ||
        errno == ERANGE) {
      ADD_FAILURE() << name << ": malformed seed token '" << token
                    << "' in '" << spec
                    << "' (want comma-separated decimal integers)";
    } else if (std::find(seeds.begin(), seeds.end(), v) == seeds.end()) {
      seeds.push_back(v);
    }
    pos = comma + 1;
  }
  return seeds;
}

/// Renders each result row as "v1|v2|..." and sorts, for order-insensitive
/// comparison.
inline std::vector<std::string> RowStrings(const sql::QueryResult& result) {
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += "|";
      s += row[i].ToString();
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `sql` and returns sorted row strings; fails the test on error.
inline std::vector<std::string> Rows(sql::SqlEngine& engine, const std::string& sql) {
  auto result = engine.Query(sql);
  EXPECT_TRUE(result.ok()) << sql << "\n" << result.status().ToString();
  if (!result.ok()) return {};
  return RowStrings(*result);
}

/// Creates the paper's Table 2 relations (`requests`, `history`, both with
/// ID, TA, INTRATA, OPERATION, OBJECT) in the catalog.
inline void CreateRequestTables(storage::Catalog* catalog) {
  using storage::ColumnDef;
  using storage::Schema;
  using storage::ValueType;
  const std::vector<ColumnDef> cols = {
      {"id", ValueType::kInt64},        {"ta", ValueType::kInt64},
      {"intrata", ValueType::kInt64},   {"operation", ValueType::kString},
      {"object", ValueType::kInt64},
  };
  ASSERT_TRUE(catalog->CreateTable("requests", Schema(cols)).ok());
  ASSERT_TRUE(catalog->CreateTable("history", Schema(cols)).ok());
}

/// Appends a Table 2 row.
inline void AddOp(storage::Table* table, int64_t id, int64_t ta, int64_t intrata,
                  const std::string& op, int64_t object) {
  using storage::Value;
  auto result = table->Insert({Value::Int64(id), Value::Int64(ta),
                               Value::Int64(intrata), Value::String(op),
                               Value::Int64(object)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

}  // namespace declsched::testing

#endif  // DECLSCHED_TESTS_TEST_UTIL_H_
