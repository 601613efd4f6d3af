// Unit tests for the key handles (common/key_ref.h): hash stability
// against the canonical FNV-1a implementation, views over the caller's
// storage, and exact (byte, not hash) equality.
#include "common/key_ref.h"

#include <gtest/gtest.h>

#include <string>

#include "common/hash.h"

namespace abase {
namespace {

// ---------------------------------------------------------------------------
// Hash stability
// ---------------------------------------------------------------------------

TEST(KeyRefTest, HashMatchesCanonicalFnv1a) {
  for (const char* k : {"", "a", "t1:k42", "t999:k123456789",
                        "a-rather-longer-key-that-exceeds-sso-storage"}) {
    KeyRef ref = KeyRef::From(k);
    EXPECT_EQ(ref.hash, Fnv1a64(k)) << k;
    EXPECT_EQ(ref.view(), std::string_view(k));
  }
}

TEST(KeyRefTest, InternPreservesBytesAndHash) {
  // A ref views the caller's bytes in place (no copy) and carries their
  // hash, so it reads whatever that storage holds while it lives.
  std::string src = "t7:k1001";
  KeyRef ref = KeyRef::From(src);
  EXPECT_EQ(ref.data, src.data());
  EXPECT_EQ(ref.view(), "t7:k1001");
  EXPECT_EQ(ref.hash, Fnv1a64("t7:k1001"));
  EXPECT_EQ(KeyRef::From(std::string_view(src).substr(0, 2)).view(), "t7");
}

TEST(KeyRefTest, EqualityComparesBytesNotJustHash) {
  KeyRef a = KeyRef::From("alpha");
  KeyRef b = KeyRef::From("alpha");
  KeyRef c = KeyRef::From("beta");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Same hash, different bytes must compare unequal (forged collision).
  KeyRef forged = c;
  forged.hash = a.hash;
  EXPECT_NE(a, forged);
}

}  // namespace
}  // namespace abase
