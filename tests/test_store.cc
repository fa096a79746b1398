// Store suite: the HPS1 codec, the on-disk MatrixStore, the damaged-store
// corpus (tests/data/bad_store/), and the cache's two-tier demote/promote
// behavior.
//
// The claims proven here back DESIGN.md §16 ("Persistent path-matrix
// store"):
//  * the lossless codec round-trips bitwise and the quantized codec stays
//    far inside its 1e-6 contract, on real partials and on seeded random
//    shapes;
//  * truncating an encoded entry at ANY byte boundary, appending trailing
//    bytes, or flipping any single payload bit is detected and degrades to
//    a clean error — never UB, never a wrong matrix;
//  * even without the checksum, the decoder turns every single-bit flip
//    into a clean error or a structurally valid finite matrix, and rejects
//    a header claiming more rows or entries than the payload holds before
//    allocating for them;
//  * every corruption mode in the checked-in corpus (torn manifest tail,
//    bit-flipped payload, foreign digest, stale format version, short
//    payload) loads as a clean miss with `corrupt_entries` incremented;
//  * a store filled from one graph is never served to a cache over
//    another (the manifest's graph digest differs);
//  * with a store attached, a demote/promote cycle leaves `ComputeCount`
//    at 1, a cold restart leaves it at 0, and a budget far smaller than
//    the working set stops costing recomputes after one warmup pass;
//  * store-backed answers are identical (1e-12, in fact bitwise for the
//    lossless codec) to storeless ones, even when every payload file on
//    disk has been bit-flipped between runs.
//
// Fault-dependent tests ("store.write.alloc", "store.read.corrupt") skip
// themselves unless the build compiles the hooks in
// (-DHETESIM_FAULT_INJECTION=ON), matching tests/test_resilience.cc.

#include "store/store.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "core/topk.h"
#include "datagen/dblp_generator.h"
#include "hin/digest.h"
#include "store/codec.h"
#include "test_util.h"

namespace hetesim {
namespace {

namespace fs = std::filesystem;

MetaPath Parse(const HinGraph& g, const char* spec) {
  return *MetaPath::Parse(g.schema(), spec);
}

/// A fresh (deleted if left over) directory unique to the calling test.
fs::path FreshDir(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       (std::string("hetesim_store_") + info->name() + "_" + tag);
  fs::remove_all(dir);
  return dir;
}

uint64_t BitsOf(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Bitwise structural equality: same CSR arrays, values compared as bit
/// patterns (stricter than ==, which would conflate 0.0 and -0.0).
void ExpectBitwiseEqual(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.row_ptr(), b.row_ptr());
  ASSERT_EQ(a.col_idx(), b.col_idx());
  ASSERT_EQ(a.values().size(), b.values().size());
  for (size_t i = 0; i < a.values().size(); ++i) {
    ASSERT_EQ(BitsOf(a.values()[i]), BitsOf(b.values()[i])) << "value " << i;
  }
}

/// Real reachable-probability partials: every half of a handful of Fig-4
/// paths plus the halves of a small generated DBLP network, and the
/// degenerate shapes (empty, identity, zero-dimension) a codec must not
/// choke on.
std::vector<SparseMatrix> SamplePartials() {
  std::vector<SparseMatrix> out;
  HinGraph fig4 = testing::BuildFig4Graph();
  PathMatrixCache fig4_cache;
  // Each path's full reachable matrix is the left half of the path
  // followed by its reverse.
  for (const auto& [spec, doubled] :
       std::vector<std::pair<const char*, const char*>>{{"APC", "APCPA"},
                                                        {"APA", "APAPA"},
                                                        {"APCPA", "APCPAPCPA"},
                                                        {"CPC", "CPCPC"},
                                                        {"AP", "APA"}}) {
    const MetaPath path = Parse(fig4, spec);
    out.push_back(*fig4_cache.GetLeft(fig4, path).value());
    out.push_back(*fig4_cache.GetRight(fig4, path).value());
    out.push_back(*fig4_cache.GetLeft(fig4, Parse(fig4, doubled)).value());
  }
  DblpConfig config;
  config.num_papers = 120;
  config.num_authors = 80;
  config.num_terms = 80;
  config.seed = 7;
  const DblpDataset dblp = *GenerateDblp(config);
  PathMatrixCache dblp_cache;
  for (const char* spec : {"A-P-C", "A-P-T", "C-P-T"}) {
    const MetaPath path = Parse(dblp.graph, spec);
    out.push_back(*dblp_cache.GetLeft(dblp.graph, path).value());
    out.push_back(*dblp_cache.GetRight(dblp.graph, path).value());
  }
  out.push_back(SparseMatrix(3, 4));  // no non-zeros
  out.push_back(SparseMatrix(0, 0));
  out.push_back(SparseMatrix(0, 5));
  out.push_back(SparseMatrix(5, 0));
  out.push_back(SparseMatrix::Identity(6));
  out.push_back(SparseMatrix::FromTriplets(1, 1, {{0, 0, -0.0}}));
  return out;
}

// ---------------------------------------------------------------------------
// HPS1 codec.
// ---------------------------------------------------------------------------

TEST(StoreCodec, LosslessRoundTripIsBitwise) {
  for (const SparseMatrix& matrix : SamplePartials()) {
    std::string bytes;
    ASSERT_TRUE(EncodeStoreEntry(matrix, StoreCodec::kLossless, &bytes).ok());
    Result<SparseMatrix> decoded = DecodeStoreEntry(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectBitwiseEqual(matrix, *decoded);
  }
}

TEST(StoreCodec, QuantizedRoundTripWithinContract) {
  for (const SparseMatrix& matrix : SamplePartials()) {
    std::string bytes;
    ASSERT_TRUE(EncodeStoreEntry(matrix, StoreCodec::kQuantized, &bytes).ok());
    Result<SparseMatrix> decoded = DecodeStoreEntry(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    // Structure is never quantized — only values are.
    ASSERT_EQ(matrix.row_ptr(), decoded->row_ptr());
    ASSERT_EQ(matrix.col_idx(), decoded->col_idx());
    double scale = 0.0;
    for (const double v : matrix.values()) scale = std::max(scale, std::fabs(v));
    for (size_t i = 0; i < matrix.values().size(); ++i) {
      const double error = std::fabs(matrix.values()[i] - decoded->values()[i]);
      EXPECT_LE(error, 1e-6) << "value " << i;       // the documented contract
      EXPECT_LE(error, scale * 1e-9) << "value " << i;  // the actual bound
    }
  }
}

TEST(StoreCodec, QuantizedIsSmallerThanLossless) {
  // A real partial with a few hundred non-zeros: the 4-byte fixed-point
  // values section must beat the 8-byte raw doubles.
  DblpConfig config;
  config.num_papers = 120;
  config.num_authors = 80;
  config.num_terms = 80;
  config.seed = 7;
  const DblpDataset dblp = *GenerateDblp(config);
  PathMatrixCache cache;
  const SparseMatrix matrix =
      *cache.GetLeft(dblp.graph, Parse(dblp.graph, "A-P-T")).value();
  ASSERT_GT(matrix.NumNonZeros(), 100);
  std::string lossless;
  std::string quantized;
  ASSERT_TRUE(EncodeStoreEntry(matrix, StoreCodec::kLossless, &lossless).ok());
  ASSERT_TRUE(EncodeStoreEntry(matrix, StoreCodec::kQuantized, &quantized).ok());
  EXPECT_LT(quantized.size(), lossless.size());
}

TEST(StoreCodec, TruncationAtEveryLengthFailsCleanly) {
  const SparseMatrix matrix = SparseMatrix::FromTriplets(
      3, 4, {{0, 0, 0.5}, {0, 2, 0.25}, {1, 1, 1.0}, {2, 3, 0.125}});
  for (const StoreCodec codec : {StoreCodec::kLossless, StoreCodec::kQuantized}) {
    std::string bytes;
    ASSERT_TRUE(EncodeStoreEntry(matrix, codec, &bytes).ok());
    for (size_t len = 0; len < bytes.size(); ++len) {
      Result<SparseMatrix> decoded =
          DecodeStoreEntry(std::string_view(bytes.data(), len));
      EXPECT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    }
  }
}

TEST(StoreCodec, TrailingBytesAreRejected) {
  std::string bytes;
  ASSERT_TRUE(EncodeStoreEntry(SparseMatrix::Identity(3), StoreCodec::kLossless,
                               &bytes)
                  .ok());
  bytes.push_back('\0');
  EXPECT_FALSE(DecodeStoreEntry(bytes).ok());
}

TEST(StoreCodec, BadMagicAndCodecByteAreRejected) {
  std::string bytes;
  ASSERT_TRUE(EncodeStoreEntry(SparseMatrix::Identity(3), StoreCodec::kLossless,
                               &bytes)
                  .ok());
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeStoreEntry(bad_magic).ok());
  std::string bad_codec = bytes;
  bad_codec[4] = 7;  // byte 4 is the codec id; only 0 and 1 exist
  EXPECT_FALSE(DecodeStoreEntry(bad_codec).ok());
}

TEST(StoreCodec, NonFiniteValuesNeverEscape) {
  // Encoding refuses non-finite values outright...
  const double inf = std::numeric_limits<double>::infinity();
  std::string bytes;
  EXPECT_FALSE(EncodeStoreEntry(SparseMatrix::FromTriplets(1, 1, {{0, 0, inf}}),
                                StoreCodec::kLossless, &bytes)
                   .ok());
  // ...and decoding rejects a NaN or infinity smuggled into the raw values
  // section of an otherwise valid entry (a 1-nnz lossless payload ends with
  // the 8 value bytes).
  bytes.clear();
  ASSERT_TRUE(EncodeStoreEntry(SparseMatrix::FromTriplets(1, 1, {{0, 0, 0.5}}),
                               StoreCodec::kLossless, &bytes)
                  .ok());
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    std::string patched = bytes;
    std::memcpy(patched.data() + patched.size() - sizeof(double), &bad,
                sizeof(double));
    EXPECT_FALSE(DecodeStoreEntry(patched).ok()) << bad;
  }
}

TEST(StoreCodec, RejectsHeaderClaimingMoreThanPayloadHolds) {
  // A corrupt row or entry count that passes the dimension caps must be
  // caught against the bytes actually present BEFORE anything is sized
  // from it: rows = 2^31 would otherwise reserve a 16 GiB row_ptr.
  auto header_only = [](uint64_t rows, uint64_t cols, uint64_t nnz) {
    std::string bytes = "HPS1";
    bytes.push_back(static_cast<char>(StoreCodec::kLossless));
    for (uint64_t value : {rows, cols, nnz}) {
      for (; value >= 0x80; value >>= 7) {
        bytes.push_back(static_cast<char>((value & 0x7f) | 0x80));
      }
      bytes.push_back(static_cast<char>(value));
    }
    return bytes;
  };
  const uint64_t big = uint64_t{1} << 31;
  const std::string inflated_rows = header_only(big, 1, 0);
  ASSERT_EQ(inflated_rows.size(), 12u);
  for (const std::string& bytes : {inflated_rows, header_only(1, big, big / 2)}) {
    const Status status = DecodeStoreEntry(bytes).status();
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.message().find("payload holds"), std::string::npos)
        << status.ToString();
  }
}

/// Structural validity of a decoded matrix: consistent CSR arrays, columns
/// strictly ascending and in range within every row, finite values.
::testing::AssertionResult IsValidCsr(const SparseMatrix& m) {
  const std::vector<Index>& row_ptr = m.row_ptr();
  if (m.rows() < 0 || m.cols() < 0 ||
      row_ptr.size() != static_cast<size_t>(m.rows()) + 1 || row_ptr[0] != 0 ||
      static_cast<size_t>(row_ptr.back()) != m.col_idx().size() ||
      m.col_idx().size() != m.values().size()) {
    return ::testing::AssertionFailure() << "inconsistent CSR arrays";
  }
  for (size_t r = 0; r + 1 < row_ptr.size(); ++r) {
    if (row_ptr[r] > row_ptr[r + 1] || row_ptr[r + 1] > row_ptr.back()) {
      return ::testing::AssertionFailure() << "row_ptr out of order at " << r;
    }
    for (Index k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const Index col = m.col_idx()[static_cast<size_t>(k)];
      if (col < 0 || col >= m.cols() ||
          (k > row_ptr[r] && col <= m.col_idx()[static_cast<size_t>(k) - 1])) {
        return ::testing::AssertionFailure() << "bad column in row " << r;
      }
      if (!std::isfinite(m.values()[static_cast<size_t>(k)])) {
        return ::testing::AssertionFailure() << "non-finite value in row " << r;
      }
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(StoreCodec, EverySingleBitFlipDecodesCleanly) {
  // The decoder on its own, without the manifest checksum in front of it:
  // a one-bit flip anywhere in an entry must give a clean error or a
  // structurally valid matrix, never a crash or a non-finite value.
  const SparseMatrix matrix =
      SparseMatrix::FromTriplets(2, 3, {{0, 1, 0.25}, {1, 2, 0.75}});
  for (const StoreCodec codec : {StoreCodec::kLossless, StoreCodec::kQuantized}) {
    std::string bytes;
    ASSERT_TRUE(EncodeStoreEntry(matrix, codec, &bytes).ok());
    for (size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped = bytes;
        flipped[byte] = static_cast<char>(
            static_cast<unsigned char>(flipped[byte]) ^ (1u << bit));
        const Result<SparseMatrix> decoded = DecodeStoreEntry(flipped);
        if (!decoded.ok()) {
          EXPECT_TRUE(decoded.status().IsInvalidArgument())
              << decoded.status().ToString();
          continue;
        }
        EXPECT_TRUE(IsValidCsr(*decoded))
            << StoreCodecToString(codec) << " flip of byte " << byte << " bit "
            << bit;
      }
    }
  }
}

// Seeded properties over random shapes: each seed draws one matrix with
// 1-30 rows, 1-40 columns (odd seeds: 1-600, so column deltas need
// multi-byte varints), a few hundred non-zeros at most, and values spread
// over forty binary orders of magnitude.
class StoreCodecProperty : public ::testing::TestWithParam<uint64_t> {
 protected:
  static SparseMatrix RandomPartial(uint64_t seed) {
    Rng rng(seed);
    const Index rows = static_cast<Index>(rng.Uniform(30)) + 1;
    const Index cols =
        static_cast<Index>(rng.Uniform(seed % 2 == 0 ? 40 : 600)) + 1;
    const double density = (0.05 + 0.4 * rng.UniformDouble()) *
                           std::min(1.0, 40.0 / static_cast<double>(cols));
    std::vector<Triplet> triplets;
    for (Index r = 0; r < rows; ++r) {
      for (Index c = 0; c < cols; ++c) {
        if (!rng.Bernoulli(density)) continue;
        const double value = std::ldexp(0.5 + 0.5 * rng.UniformDouble(),
                                        -static_cast<int>(rng.Uniform(40)));
        triplets.push_back({r, c, value});
      }
    }
    return SparseMatrix::FromTriplets(rows, cols, std::move(triplets));
  }

  static std::string Encode(const SparseMatrix& matrix, StoreCodec codec) {
    std::string bytes;
    HETESIM_CHECK(EncodeStoreEntry(matrix, codec, &bytes).ok());
    return bytes;
  }

  const SparseMatrix matrix_ = RandomPartial(GetParam());
};

TEST_P(StoreCodecProperty, LosslessExactAcrossShapes) {
  ASSERT_GT(matrix_.NumNonZeros(), 0);
  Result<SparseMatrix> decoded =
      DecodeStoreEntry(Encode(matrix_, StoreCodec::kLossless));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectBitwiseEqual(matrix_, *decoded);
}

TEST_P(StoreCodecProperty, QuantizedWithinContractAcrossShapes) {
  const std::string lossless = Encode(matrix_, StoreCodec::kLossless);
  const std::string quantized = Encode(matrix_, StoreCodec::kQuantized);
  // The layouts differ only in the values section: nnz raw doubles against
  // an 8-byte scale plus nnz 4-byte fixed-point values.
  const size_t nnz = static_cast<size_t>(matrix_.NumNonZeros());
  EXPECT_EQ(lossless.size() + 8, quantized.size() + 4 * nnz);

  Result<SparseMatrix> decoded = DecodeStoreEntry(quantized);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(matrix_.row_ptr(), decoded->row_ptr());
  ASSERT_EQ(matrix_.col_idx(), decoded->col_idx());
  double scale = 0.0;
  for (const double v : matrix_.values()) scale = std::max(scale, std::fabs(v));
  for (size_t i = 0; i < nnz; ++i) {
    const double error = std::fabs(matrix_.values()[i] - decoded->values()[i]);
    EXPECT_LE(error, 1e-6) << "value " << i;
    EXPECT_LE(error, scale * 1e-9) << "value " << i;
  }
}

TEST_P(StoreCodecProperty, CorruptBytesNeverCrash) {
  // Random multi-byte damage, unlike the exhaustive one-bit flips above:
  // decoding must fail cleanly or yield a structurally valid matrix.
  Rng rng(GetParam() * 31 + 7);
  for (const StoreCodec codec : {StoreCodec::kLossless, StoreCodec::kQuantized}) {
    const std::string bytes = Encode(matrix_, codec);
    for (int trial = 0; trial < 200; ++trial) {
      std::string corrupted = bytes;
      const uint64_t damaged_bytes = 1 + rng.Uniform(3);
      for (uint64_t d = 0; d < damaged_bytes; ++d) {
        corrupted[rng.Uniform(corrupted.size())] ^=
            static_cast<char>(1 + rng.Uniform(255));
      }
      const Result<SparseMatrix> decoded = DecodeStoreEntry(corrupted);
      if (!decoded.ok()) {
        EXPECT_TRUE(decoded.status().IsInvalidArgument())
            << decoded.status().ToString();
        continue;
      }
      EXPECT_TRUE(IsValidCsr(*decoded))
          << StoreCodecToString(codec) << " trial " << trial;
    }
  }
}

TEST_P(StoreCodecProperty, TruncatedOrExtendedEntriesNeverDecode) {
  for (const StoreCodec codec : {StoreCodec::kLossless, StoreCodec::kQuantized}) {
    const std::string bytes = Encode(matrix_, codec);
    for (size_t len = 0; len < bytes.size(); ++len) {
      EXPECT_FALSE(DecodeStoreEntry(std::string_view(bytes.data(), len)).ok())
          << StoreCodecToString(codec) << " prefix of " << len << " bytes";
    }
    for (const char extra : {'\0', '\x01', '\x7f', '\x80'}) {
      EXPECT_FALSE(DecodeStoreEntry(bytes + extra).ok())
          << StoreCodecToString(codec) << " with a trailing byte";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreCodecProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(StoreCodec, ChecksumDetectsEverySingleBitFlip) {
  std::string bytes;
  ASSERT_TRUE(EncodeStoreEntry(
                  SparseMatrix::FromTriplets(2, 3, {{0, 1, 0.25}, {1, 2, 0.75}}),
                  StoreCodec::kLossless, &bytes)
                  .ok());
  const uint64_t clean = StoreChecksum(bytes);
  for (size_t byte = 0; byte < bytes.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = bytes;
      flipped[byte] = static_cast<char>(static_cast<unsigned char>(flipped[byte]) ^
                                        (1u << bit));
      EXPECT_NE(StoreChecksum(flipped), clean)
          << "flip of byte " << byte << " bit " << bit << " went undetected";
    }
  }
}

// ---------------------------------------------------------------------------
// MatrixStore semantics on a fresh directory.
// ---------------------------------------------------------------------------

class MatrixStoreTest : public ::testing::Test {
 protected:
  std::unique_ptr<MatrixStore> OpenStore(const fs::path& dir,
                                         uint64_t digest = 42,
                                         StoreCodec codec = StoreCodec::kLossless) {
    StoreOptions options;
    options.directory = dir.string();
    options.graph_digest = digest;
    options.codec = codec;
    Result<std::unique_ptr<MatrixStore>> store = MatrixStore::Open(options);
    HETESIM_CHECK(store.ok());
    return std::move(*store);
  }
  const SparseMatrix matrix_ = SparseMatrix::FromTriplets(
      3, 4, {{0, 0, 0.5}, {1, 1, 0.25}, {2, 3, 0.125}});
};

TEST_F(MatrixStoreTest, PutGetRoundTrip) {
  const fs::path dir = FreshDir("roundtrip");
  std::unique_ptr<MatrixStore> store = OpenStore(dir);
  ASSERT_TRUE(store->Put("PM:A-P-C", matrix_).ok());
  EXPECT_TRUE(store->Contains("PM:A-P-C"));
  Result<SparseMatrix> back = store->Get("PM:A-P-C");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitwiseEqual(matrix_, *back);
  const MatrixStore::Stats stats = store->stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.writes, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.corrupt_entries, 0u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST_F(MatrixStoreTest, AbsentKeyIsNotFound) {
  std::unique_ptr<MatrixStore> store = OpenStore(FreshDir("absent"));
  Result<SparseMatrix> missing = store->Get("PM:nope");
  EXPECT_TRUE(missing.status().IsNotFound());
  EXPECT_FALSE(store->Contains("PM:nope"));
  EXPECT_EQ(store->stats().misses, 1u);
}

TEST_F(MatrixStoreTest, OverwriteReplacesTheEntry) {
  std::unique_ptr<MatrixStore> store = OpenStore(FreshDir("overwrite"));
  ASSERT_TRUE(store->Put("PM:A-P", matrix_).ok());
  const SparseMatrix second = SparseMatrix::Identity(4);
  ASSERT_TRUE(store->Put("PM:A-P", second).ok());
  EXPECT_EQ(store->stats().entries, 1u);
  Result<SparseMatrix> back = store->Get("PM:A-P");
  ASSERT_TRUE(back.ok());
  ExpectBitwiseEqual(second, *back);
}

TEST_F(MatrixStoreTest, KeysWithTabOrNewlineAreRejected) {
  // The manifest is tab-separated lines; such keys would tear it.
  std::unique_ptr<MatrixStore> store = OpenStore(FreshDir("badkey"));
  EXPECT_TRUE(store->Put("PM:a\tb", matrix_).IsInvalidArgument());
  EXPECT_TRUE(store->Put("PM:a\nb", matrix_).IsInvalidArgument());
  EXPECT_EQ(store->stats().entries, 0u);
}

TEST_F(MatrixStoreTest, ReopenSeesPersistedEntries) {
  const fs::path dir = FreshDir("reopen");
  {
    std::unique_ptr<MatrixStore> store = OpenStore(dir);
    ASSERT_TRUE(store->Put("PM:A-P-C", matrix_).ok());
  }
  std::unique_ptr<MatrixStore> reopened = OpenStore(dir);
  EXPECT_EQ(reopened->stats().entries, 1u);
  EXPECT_EQ(reopened->stats().corrupt_entries, 0u);
  Result<SparseMatrix> back = reopened->Get("PM:A-P-C");
  ASSERT_TRUE(back.ok());
  ExpectBitwiseEqual(matrix_, *back);
  // New writes after a reopen must not clobber existing payload files.
  ASSERT_TRUE(reopened->Put("PM:C-P", SparseMatrix::Identity(2)).ok());
  ExpectBitwiseEqual(matrix_, *reopened->Get("PM:A-P-C"));
}

TEST_F(MatrixStoreTest, ReopenWithDifferentDigestStartsEmpty) {
  const fs::path dir = FreshDir("digest");
  {
    std::unique_ptr<MatrixStore> store = OpenStore(dir, /*digest=*/42);
    ASSERT_TRUE(store->Put("PM:A-P-C", matrix_).ok());
  }
  std::unique_ptr<MatrixStore> foreign = OpenStore(dir, /*digest=*/43);
  EXPECT_EQ(foreign->stats().entries, 0u);
  EXPECT_EQ(foreign->stats().corrupt_entries, 1u);
  EXPECT_TRUE(foreign->Get("PM:A-P-C").status().IsNotFound());
}

TEST_F(MatrixStoreTest, ReadCountCountsDiskReads) {
  std::unique_ptr<MatrixStore> store = OpenStore(FreshDir("readcount"));
  ASSERT_TRUE(store->Put("PM:A-P", matrix_).ok());
  EXPECT_EQ(store->ReadCount("PM:A-P"), 0u);
  ASSERT_TRUE(store->Get("PM:A-P").ok());
  ASSERT_TRUE(store->Get("PM:A-P").ok());
  EXPECT_EQ(store->ReadCount("PM:A-P"), 2u);
  EXPECT_EQ(store->ReadCount("PM:other"), 0u);
}

TEST_F(MatrixStoreTest, QuantizedStoreStaysWithinContract) {
  std::unique_ptr<MatrixStore> store =
      OpenStore(FreshDir("quant"), 42, StoreCodec::kQuantized);
  ASSERT_TRUE(store->Put("PM:A-P", matrix_).ok());
  Result<SparseMatrix> back = store->Get("PM:A-P");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->NumNonZeros(), matrix_.NumNonZeros());
  for (size_t i = 0; i < matrix_.values().size(); ++i) {
    EXPECT_NEAR(matrix_.values()[i], back->values()[i], 1e-6);
  }
}

TEST_F(MatrixStoreTest, MissingDirectoryIsCreated) {
  const fs::path dir = FreshDir("missing") / "nested" / "store";
  ASSERT_FALSE(fs::exists(dir));
  std::unique_ptr<MatrixStore> store = OpenStore(dir);
  EXPECT_TRUE(fs::is_directory(dir));
  // An absent directory is a fresh store, not a damaged one.
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_EQ(store->stats().corrupt_entries, 0u);
  ASSERT_TRUE(store->Put("PM:A-P", matrix_).ok());
  Result<SparseMatrix> back = OpenStore(dir)->Get("PM:A-P");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitwiseEqual(matrix_, *back);
}

TEST_F(MatrixStoreTest, UncreatableDirectoryIsAnIOError) {
  const fs::path dir = FreshDir("blocked");
  fs::create_directories(dir);
  const fs::path file = dir / "not_a_directory";
  std::ofstream(file) << "x";
  StoreOptions options;
  options.graph_digest = 42;
  options.directory = (file / "store").string();
  const Status blocked = MatrixStore::Open(options).status();
  EXPECT_TRUE(blocked.IsIOError()) << blocked.ToString();
  options.directory.clear();
  const Status empty = MatrixStore::Open(options).status();
  EXPECT_TRUE(empty.IsInvalidArgument()) << empty.ToString();
}

// ---------------------------------------------------------------------------
// The checked-in damaged-store corpus (tests/data/bad_store/). Each case is
// a real on-disk store broken in exactly one way; opening and probing it
// must degrade to clean misses with `corrupt_entries` ticks — never crash,
// never serve a wrong matrix. Regeneration: see the corpus README.md.
// ---------------------------------------------------------------------------

class BadStoreCorpusTest : public ::testing::Test {
 protected:
  // Must match gen_bad_store.cc.
  static constexpr uint64_t kCorpusDigest = 0x0123456789abcdefull;
  static constexpr const char* kKey = "PM:A-P";

  std::unique_ptr<MatrixStore> OpenCase(const char* name) {
    StoreOptions options;
    options.directory =
        std::string(HETESIM_TEST_DATA_DIR) + "/bad_store/" + name;
    options.graph_digest = kCorpusDigest;
    Result<std::unique_ptr<MatrixStore>> store = MatrixStore::Open(options);
    HETESIM_CHECK(store.ok());
    return std::move(*store);
  }
  static SparseMatrix CorpusMatrix() {
    return SparseMatrix::FromTriplets(3, 4,
                                      {{0, 0, 0.5},
                                       {0, 2, 0.25},
                                       {1, 1, 1.0},
                                       {2, 0, 0.125},
                                       {2, 3, 0.0625}});
  }
};

TEST_F(BadStoreCorpusTest, TruncatedManifestKeepsThePublishedPrefix) {
  std::unique_ptr<MatrixStore> store = OpenCase("truncated_manifest");
  // The torn tail costs one corruption tick, but entry 0 was fully
  // published before the crash and must survive intact.
  EXPECT_EQ(store->stats().entries, 1u);
  EXPECT_EQ(store->stats().corrupt_entries, 1u);
  Result<SparseMatrix> back = store->Get(kKey);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitwiseEqual(CorpusMatrix(), *back);
}

TEST_F(BadStoreCorpusTest, BitFlippedPayloadIsACleanMiss) {
  std::unique_ptr<MatrixStore> store = OpenCase("bit_flipped_values");
  EXPECT_EQ(store->stats().corrupt_entries, 0u);  // manifest itself is fine
  EXPECT_TRUE(store->Contains(kKey));
  EXPECT_TRUE(store->Get(kKey).status().IsNotFound());
  EXPECT_EQ(store->stats().corrupt_entries, 1u);
  // Dropped from the index so it is never retried...
  EXPECT_FALSE(store->Contains(kKey));
  EXPECT_TRUE(store->Get(kKey).status().IsNotFound());
  EXPECT_EQ(store->stats().corrupt_entries, 1u);
  // ...but the read-only corpus on disk is never rewritten: a second open
  // still lists the entry.
  EXPECT_TRUE(OpenCase("bit_flipped_values")->Contains(kKey));
}

TEST_F(BadStoreCorpusTest, WrongGraphDigestOpensEmpty) {
  std::unique_ptr<MatrixStore> store = OpenCase("wrong_digest");
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_EQ(store->stats().corrupt_entries, 1u);
  EXPECT_TRUE(store->Get(kKey).status().IsNotFound());
}

TEST_F(BadStoreCorpusTest, StaleFormatVersionOpensEmpty) {
  std::unique_ptr<MatrixStore> store = OpenCase("stale_magic");
  EXPECT_EQ(store->stats().entries, 0u);
  EXPECT_EQ(store->stats().corrupt_entries, 1u);
  EXPECT_TRUE(store->Get(kKey).status().IsNotFound());
}

TEST_F(BadStoreCorpusTest, TruncatedPayloadIsACleanMiss) {
  std::unique_ptr<MatrixStore> store = OpenCase("truncated_payload");
  EXPECT_TRUE(store->Contains(kKey));
  EXPECT_TRUE(store->Get(kKey).status().IsNotFound());
  EXPECT_EQ(store->stats().corrupt_entries, 1u);
}

// ---------------------------------------------------------------------------
// Two-tier cache behavior: demote on eviction, promote on miss.
// ---------------------------------------------------------------------------

class TwoTierTest : public ::testing::Test {
 protected:
  TwoTierTest() : graph_(testing::BuildFig4Graph()) {}

  MetaPath Path(const char* spec) const { return Parse(graph_, spec); }

  /// The default digest is any constant: opens that keep it agree.
  std::shared_ptr<MatrixStore> OpenStore(const fs::path& dir,
                                         uint64_t digest = 42) {
    StoreOptions options;
    options.directory = dir.string();
    options.graph_digest = digest;
    Result<std::unique_ptr<MatrixStore>> store = MatrixStore::Open(options);
    HETESIM_CHECK(store.ok());
    return std::shared_ptr<MatrixStore>(std::move(*store));
  }

  /// Byte size of the largest of the given left halves, measured on a
  /// throwaway cache — the budget that lets exactly one of them reside.
  size_t LargestLeftBytes(const std::vector<const char*>& specs) {
    PathMatrixCache probe;
    size_t largest = 0;
    for (const char* spec : specs) {
      largest = std::max(largest,
                         probe.GetLeft(graph_, Path(spec)).value()->ApproxBytes());
    }
    return largest;
  }

  HinGraph graph_;
};

TEST_F(TwoTierTest, DemotePromoteLeavesComputeCountAtOne) {
  auto store = OpenStore(FreshDir("demote"));
  PathMatrixCache cache;
  cache.SetMemoryBudget(
      std::make_shared<MemoryBudget>(LargestLeftBytes({"APC", "CPA"})));
  cache.AttachStore(store);

  const std::string key = PathMatrixCache::LeftKey(Path("APC"));
  std::shared_ptr<const SparseMatrix> first =
      cache.GetLeft(graph_, Path("APC")).value();
  EXPECT_EQ(cache.ComputeCount(key), 1u);

  // Admitting a second half exceeds the one-entry budget: the first is
  // evicted and — store attached — demoted to disk instead of dropped.
  cache.GetLeft(graph_, Path("CPA")).value();
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_GE(cache.stats().store_demotions, 1u);
  EXPECT_TRUE(store->Contains(key));

  // The re-request is a miss served by promotion: exactly one disk read,
  // no recomputation, and (lossless codec) a bitwise-identical matrix.
  std::shared_ptr<const SparseMatrix> promoted =
      cache.GetLeft(graph_, Path("APC")).value();
  EXPECT_EQ(cache.ComputeCount(key), 1u);
  EXPECT_EQ(cache.stats().store_hits, 1u);
  EXPECT_EQ(store->ReadCount(key), 1u);
  ExpectBitwiseEqual(*first, *promoted);
}

TEST_F(TwoTierTest, ColdRestartServesMissesFromDiskWithoutComputing) {
  const fs::path dir = FreshDir("coldstart");
  std::shared_ptr<const SparseMatrix> original;
  {
    // "hetesim_cli materialize": compute, then flush the cache to disk.
    auto store = OpenStore(dir);
    PathMatrixCache warm;
    warm.AttachStore(store);
    ASSERT_TRUE(warm.FlushToStore().ok());  // an empty cache writes nothing
    EXPECT_EQ(store->stats().entries, 0u);
    original = warm.GetLeft(graph_, Path("APCPA")).value();
    ASSERT_TRUE(warm.FlushToStore().ok());
  }
  // The restarted process: fresh cache over the reopened store.
  auto store = OpenStore(dir);
  PathMatrixCache cold;
  cold.AttachStore(store);
  const std::string key = PathMatrixCache::LeftKey(Path("APCPA"));
  std::shared_ptr<const SparseMatrix> served =
      cold.GetLeft(graph_, Path("APCPA")).value();
  EXPECT_EQ(cold.ComputeCount(key), 0u);  // reading back is not a computation
  EXPECT_EQ(cold.stats().store_hits, 1u);
  EXPECT_EQ(cold.stats().misses, 1u);
  ExpectBitwiseEqual(*original, *served);
}

TEST_F(TwoTierTest, TooSmallBudgetRecomputesNothingAfterWarmup) {
  // The ISSUE's acceptance scenario: a budget that holds ONE of the three
  // working-set halves. Without a store every pass would recompute what
  // the previous pass evicted; with one, only the warmup pass computes.
  const std::vector<const char*> specs = {"APC", "CPA", "APCPA"};
  auto store = OpenStore(FreshDir("warmup"));
  PathMatrixCache cache;
  cache.SetMemoryBudget(std::make_shared<MemoryBudget>(LargestLeftBytes(specs)));
  cache.AttachStore(store);

  for (const char* spec : specs) cache.GetLeft(graph_, Path(spec)).value();  // warmup
  for (const char* spec : specs) {
    ASSERT_EQ(cache.ComputeCount(PathMatrixCache::LeftKey(Path(spec))), 1u);
  }

  for (int pass = 0; pass < 4; ++pass) {
    for (const char* spec : specs) cache.GetLeft(graph_, Path(spec)).value();
  }
  // Zero recomputes after warmup: every key is still at one computation,
  // and every post-warmup miss was served by the store.
  for (const char* spec : specs) {
    EXPECT_EQ(cache.ComputeCount(PathMatrixCache::LeftKey(Path(spec))), 1u)
        << spec;
  }
  const PathMatrixCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, stats.store_hits + specs.size());
  EXPECT_GT(stats.store_hits, 0u);
}

TEST_F(TwoTierTest, GoldenScoresUnchangedByStoreBackedCache) {
  const MetaPath path = Path("APCPA");
  HeteSimEngine baseline(graph_);
  const DenseMatrix expected = baseline.Compute(path).value();
  TopKSearcher baseline_searcher = TopKSearcher::Prepare(graph_, path).value();

  auto store = OpenStore(FreshDir("golden"));
  auto cache = std::make_shared<PathMatrixCache>();
  cache->SetMemoryBudget(
      std::make_shared<MemoryBudget>(LargestLeftBytes({"APC", "CPA", "APCPA"})));
  cache->AttachStore(store);
  HeteSimEngine engine(graph_, {}, cache);

  // Twice: the second pass exercises promotions of what the first demoted.
  for (int pass = 0; pass < 2; ++pass) {
    const DenseMatrix scores = engine.Compute(path).value();
    EXPECT_TRUE(scores.ApproxEquals(expected, 1e-12)) << "pass " << pass;
  }

  // Top-k through the store-backed cache matches the storeless searcher.
  Result<TopKSearcher> prepared =
      TopKSearcher::Prepare(graph_, path, {}, QueryContext(), cache.get());
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  for (Index source = 0; source < 3; ++source) {
    Result<TopKResult> want = baseline_searcher.Query(source, 3);
    Result<TopKResult> got = prepared->Query(source, 3);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(want->items.size(), got->items.size());
    for (size_t i = 0; i < want->items.size(); ++i) {
      EXPECT_EQ(want->items[i].id, got->items[i].id);
      EXPECT_NEAR(want->items[i].score, got->items[i].score, 1e-12);
    }
  }
}

TEST_F(TwoTierTest, GoldenScoresSurviveOnDiskCorruption) {
  const MetaPath path = Path("APCPA");
  HeteSimEngine baseline(graph_);
  const DenseMatrix expected = baseline.Compute(path).value();

  const fs::path dir = FreshDir("bitrot");
  {
    auto store = OpenStore(dir);
    auto warm = std::make_shared<PathMatrixCache>();
    warm->AttachStore(store);
    HeteSimEngine engine(graph_, {}, warm);
    engine.Compute(path).value();
    ASSERT_TRUE(warm->FlushToStore().ok());
    ASSERT_GT(store->stats().entries, 0u);
  }

  // Bit-rot every payload file in place (the manifest stays intact, so the
  // reopened store still lists the entries — the damage is only caught at
  // read time, by the checksum).
  size_t flipped_files = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".hps") continue;
    std::string bytes;
    {
      std::ifstream in(entry.path(), std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      bytes = buffer.str();
    }
    ASSERT_FALSE(bytes.empty());
    bytes[bytes.size() / 2] = static_cast<char>(
        static_cast<unsigned char>(bytes[bytes.size() / 2]) ^ 0x01);
    std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ++flipped_files;
  }
  ASSERT_GT(flipped_files, 0u);

  // The restarted process promotes nothing — every checksum fails — but
  // every failure is a clean miss followed by a recompute, so the answers
  // are still golden.
  auto store = OpenStore(dir);
  auto cold = std::make_shared<PathMatrixCache>();
  cold->AttachStore(store);
  HeteSimEngine engine(graph_, {}, cold);
  const DenseMatrix scores = engine.Compute(path).value();
  EXPECT_TRUE(scores.ApproxEquals(expected, 1e-12));
  EXPECT_EQ(cold->stats().store_hits, 0u);
  EXPECT_GE(store->stats().corrupt_entries, 1u);
  EXPECT_LE(store->stats().corrupt_entries, flipped_files);
}

TEST_F(TwoTierTest, FlushedLeftRightAndReachEntriesSurviveRestart) {
  // Every kind of cached matrix reaches disk through FlushToStore and is
  // served back to a restarted process without computing: A-P-C's left
  // and right halves, and the plain reachable matrix of A-P-A (the left
  // half of A-P-A-P-A).
  const MetaPath apc = Path("APC");
  const MetaPath apapa = Path("APAPA");
  const std::vector<std::string> keys = {PathMatrixCache::LeftKey(apc),
                                         PathMatrixCache::RightKey(apc),
                                         PathMatrixCache::LeftKey(apapa)};
  const fs::path dir = FreshDir("kinds");
  std::vector<std::shared_ptr<const SparseMatrix>> originals;
  {
    auto store = OpenStore(dir);
    PathMatrixCache warm;
    warm.AttachStore(store);
    originals = {warm.GetLeft(graph_, apc).value(), warm.GetRight(graph_, apc).value(),
                 warm.GetLeft(graph_, apapa).value()};
    ASSERT_TRUE(warm.FlushToStore().ok());
    EXPECT_EQ(store->stats().entries, warm.stats().entries);
    for (const std::string& key : keys) EXPECT_TRUE(store->Contains(key)) << key;
  }
  auto store = OpenStore(dir);
  PathMatrixCache cold;
  cold.AttachStore(store);
  const std::vector<std::shared_ptr<const SparseMatrix>> served = {
      cold.GetLeft(graph_, apc).value(), cold.GetRight(graph_, apc).value(),
      cold.GetLeft(graph_, apapa).value()};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(cold.ComputeCount(keys[i]), 0u) << keys[i];
    ExpectBitwiseEqual(*originals[i], *served[i]);
  }
  EXPECT_EQ(cold.stats().store_hits, keys.size());
  EXPECT_EQ(cold.stats().store_misses, 0u);
}

TEST_F(TwoTierTest, StoreFilledFromAnotherGraphIsNeverServed) {
  // A store is bound to the digest of the graph it was filled from. A
  // process over a different graph that opens the same directory starts
  // empty and computes its own answers instead of serving foreign partials.
  const HinGraph other = testing::BuildFig4Graph(/*example2=*/true);
  ASSERT_NE(GraphDigest(graph_), GraphDigest(other));
  const fs::path dir = FreshDir("foreign");
  {
    auto store = OpenStore(dir, GraphDigest(graph_));
    auto warm = std::make_shared<PathMatrixCache>();
    warm->AttachStore(store);
    HeteSimEngine(graph_, {}, warm).Compute(Path("APC")).value();
    ASSERT_TRUE(warm->FlushToStore().ok());
    ASSERT_GT(store->stats().entries, 0u);
  }
  const MetaPath apc = Parse(other, "APC");
  const DenseMatrix expected = HeteSimEngine(other).Compute(apc).value();
  // Serving the first graph's partials would have changed the answer.
  ASSERT_FALSE(
      HeteSimEngine(graph_).Compute(Path("APC")).value().ApproxEquals(expected, 1e-6));

  auto store = OpenStore(dir, GraphDigest(other));
  EXPECT_EQ(store->stats().entries, 0u);
  auto cache = std::make_shared<PathMatrixCache>();
  cache->AttachStore(store);
  EXPECT_TRUE(
      HeteSimEngine(other, {}, cache).Compute(apc).value().ApproxEquals(expected, 0.0));
  EXPECT_EQ(cache->stats().store_hits, 0u);
  EXPECT_EQ(cache->stats().store_misses, cache->stats().misses);
}

TEST_F(TwoTierTest, FlushWritesEachEntryOnce) {
  // Flushing needs a store, and never rewrites a key already on disk:
  // whether this cache flushed it before, another cache persisted it
  // first, or it was promoted from the store.
  PathMatrixCache detached;
  detached.GetLeft(graph_, Path("APC")).value();
  EXPECT_TRUE(detached.FlushToStore().IsFailedPrecondition());

  const fs::path dir = FreshDir("once");
  {
    auto store = OpenStore(dir);
    PathMatrixCache warm;
    warm.AttachStore(store);
    warm.GetLeft(graph_, Path("APC")).value();
    ASSERT_TRUE(warm.FlushToStore().ok());
    ASSERT_TRUE(warm.FlushToStore().ok());
    EXPECT_EQ(store->stats().writes, 1u);
    // `detached` computed the same key before it had a store.
    detached.AttachStore(store);
    ASSERT_TRUE(detached.FlushToStore().ok());
    EXPECT_EQ(store->stats().writes, 1u);
  }
  auto store = OpenStore(dir);
  PathMatrixCache cold;
  cold.AttachStore(store);
  cold.GetLeft(graph_, Path("APC")).value();  // promoted from disk
  cold.GetLeft(graph_, Path("CPA")).value();  // computed
  ASSERT_TRUE(cold.FlushToStore().ok());
  EXPECT_EQ(store->stats().writes, 1u);  // only the computed half
  EXPECT_EQ(store->stats().entries, 2u);
}

TEST(QuantizedStoreTopK, ZeroEntryNeverListsATargetTwice) {
  // a0-b0 carries 1e-12 of a0's weight, which the quantized codec rounds to
  // an explicit 0.0. Scattering a1's row through the promoted index then
  // meets a0 first with a zero contribution (through b0), then with a real
  // one (through b1): a0 must be registered, and listed, once.
  HinGraphBuilder builder;
  const TypeId a = builder.AddObjectType("alpha", 'A').value();
  const TypeId b = builder.AddObjectType("beta", 'B').value();
  const RelationId ab = builder.AddRelation("ab", a, b).value();
  builder.AddNodes(a, 2);
  builder.AddNodes(b, 2);
  ASSERT_TRUE(builder.AddEdge(ab, 0, 0, 1e-12).ok());
  ASSERT_TRUE(builder.AddEdge(ab, 0, 1).ok());
  ASSERT_TRUE(builder.AddEdge(ab, 1, 0).ok());
  ASSERT_TRUE(builder.AddEdge(ab, 1, 1).ok());
  const HinGraph graph = std::move(builder).Build();
  const MetaPath path = Parse(graph, "ABA");

  StoreOptions options;
  options.directory = FreshDir("zero").string();
  options.graph_digest = 42;
  options.codec = StoreCodec::kQuantized;
  auto store = std::shared_ptr<MatrixStore>(MatrixStore::Open(options).value());
  {
    PathMatrixCache flushed;
    flushed.AttachStore(store);
    flushed.GetLeft(graph, path).value();
    flushed.GetRight(graph, path).value();
    ASSERT_TRUE(flushed.FlushToStore().ok());
  }
  PathMatrixCache promoted;
  promoted.AttachStore(store);
  const TopKSearcher searcher =
      TopKSearcher::Prepare(graph, path, {}, QueryContext(), &promoted).value();
  EXPECT_EQ(promoted.stats().store_hits, 1u);  // ABA's halves share one key
  const std::shared_ptr<const SparseMatrix> left = promoted.GetLeft(graph, path).value();
  ASSERT_EQ(left->RowNnz(0), 2) << "the quantized zero is an explicit entry";
  ASSERT_EQ(left->RowValues(0)[0], 0.0);

  const TopKResult result = searcher.Query(1, 10).value();
  ASSERT_EQ(result.items.size(), 2u);
  EXPECT_EQ(result.candidates_examined, 2);
  EXPECT_EQ(result.items[0].id, 1);
  EXPECT_EQ(result.items[1].id, 0);
  EXPECT_NEAR(result.items[1].score, std::sqrt(0.5), 1e-9);
}

// ---------------------------------------------------------------------------
// Deterministic store faults (registered in tools/lint/fault_sites.txt).
// ---------------------------------------------------------------------------

class StoreFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!FaultInjector::CompiledIn()) {
      GTEST_SKIP() << "built without HETESIM_FAULT_INJECTION";
    }
    FaultInjector::Global().Reset();
  }
  void TearDown() override {
    if (FaultInjector::CompiledIn()) FaultInjector::Global().Reset();
  }
  const SparseMatrix matrix_ = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 0.5}, {1, 1, 0.25}});
};

TEST_F(StoreFaultTest, WriteAllocFaultFailsPutCleanly) {
  StoreOptions options;
  options.directory = FreshDir("faultwrite").string();
  options.graph_digest = 42;
  std::unique_ptr<MatrixStore> store = *MatrixStore::Open(options);

  FaultInjector::Global().Arm("store.write.alloc", 1.0);
  const Status failed = store->Put("PM:A-P", matrix_);
  EXPECT_TRUE(failed.IsResourceExhausted()) << failed.ToString();
  EXPECT_GE(FaultInjector::Global().StatsFor("store.write.alloc").failures, 1u);
  // A failed write publishes nothing.
  EXPECT_FALSE(store->Contains("PM:A-P"));
  EXPECT_EQ(store->stats().entries, 0u);

  // Recovery: once the fault stops, the same write succeeds.
  FaultInjector::Global().Reset();
  ASSERT_TRUE(store->Put("PM:A-P", matrix_).ok());
  ExpectBitwiseEqual(matrix_, *store->Get("PM:A-P"));
}

TEST_F(StoreFaultTest, ReadCorruptFaultIsACleanMiss) {
  StoreOptions options;
  options.directory = FreshDir("faultread").string();
  options.graph_digest = 42;
  std::unique_ptr<MatrixStore> store = *MatrixStore::Open(options);
  ASSERT_TRUE(store->Put("PM:A-P", matrix_).ok());

  FaultInjector::Global().Arm("store.read.corrupt", 1.0, /*max_failures=*/1);
  EXPECT_TRUE(store->Get("PM:A-P").status().IsNotFound());
  EXPECT_EQ(store->stats().corrupt_entries, 1u);
  EXPECT_GE(FaultInjector::Global().StatsFor("store.read.corrupt").failures, 1u);
  // The entry is dropped from the index — a caller above recomputes.
  EXPECT_FALSE(store->Contains("PM:A-P"));
}

TEST_F(StoreFaultTest, DemotionWriteFaultNeverFailsTheQuery) {
  // Demotion is best-effort: an injected write failure loses the disk copy
  // (the next miss recomputes, the pre-store behavior) but the query that
  // triggered the eviction must succeed untouched.
  HinGraph graph = testing::BuildFig4Graph();
  StoreOptions options;
  options.directory = FreshDir("faultdemote").string();
  options.graph_digest = 42;
  std::shared_ptr<MatrixStore> store = *MatrixStore::Open(options);

  PathMatrixCache probe;
  const MetaPath apc = Parse(graph, "APC");
  const MetaPath cpa = Parse(graph, "CPA");
  const size_t budget_bytes =
      std::max(probe.GetLeft(graph, apc).value()->ApproxBytes(),
               probe.GetLeft(graph, cpa).value()->ApproxBytes());

  PathMatrixCache cache;
  cache.SetMemoryBudget(std::make_shared<MemoryBudget>(budget_bytes));
  cache.AttachStore(store);
  cache.GetLeft(graph, apc).value();

  FaultInjector::Global().Arm("store.write.alloc", 1.0);
  std::shared_ptr<const SparseMatrix> survivor = cache.GetLeft(graph, cpa).value();
  ASSERT_NE(survivor, nullptr);  // the query itself is untouched
  EXPECT_GE(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().store_demotions, 0u);  // the demotion was lost
  EXPECT_FALSE(store->Contains(PathMatrixCache::LeftKey(apc)));

  // With the fault gone the evicted half is recomputed, not corrupted.
  FaultInjector::Global().Reset();
  ExpectBitwiseEqual(*probe.GetLeft(graph, apc).value(),
                     *cache.GetLeft(graph, apc).value());
  EXPECT_EQ(cache.ComputeCount(PathMatrixCache::LeftKey(apc)), 2u);
}

}  // namespace
}  // namespace hetesim
