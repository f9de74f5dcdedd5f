#include <gtest/gtest.h>

#include "server/admission.h"

namespace scaddar {
namespace {

TEST(AdmissionTest, CapacityComputation) {
  const AdmissionController admission(0.85);
  EXPECT_EQ(admission.CapacityFor(100), 85);
  EXPECT_EQ(admission.CapacityFor(0), 0);
  EXPECT_EQ(admission.CapacityFor(7), 5);  // floor(5.95).
}

TEST(AdmissionTest, AdmitsBelowCapRejectsAbove) {
  AdmissionController admission(0.5);
  EXPECT_TRUE(admission.Admit(/*active_load=*/0, /*rate=*/1,
                              /*bandwidth=*/10));
  EXPECT_TRUE(admission.Admit(4, 1, 10));
  EXPECT_FALSE(admission.Admit(5, 1, 10));
  EXPECT_FALSE(admission.Admit(100, 1, 10));
  EXPECT_EQ(admission.admitted(), 2);
  EXPECT_EQ(admission.rejected(), 2);
}

TEST(AdmissionTest, FullUtilizationCap) {
  AdmissionController admission(1.0);
  EXPECT_TRUE(admission.Admit(9, 1, 10));
  EXPECT_FALSE(admission.Admit(10, 1, 10));
}

TEST(AdmissionTest, HighRateStreamsConsumeMoreBudget) {
  AdmissionController admission(1.0);
  // A rate-4 stream needs 4 free units: fits at load 6, not at load 7.
  EXPECT_TRUE(admission.Admit(6, 4, 10));
  EXPECT_FALSE(admission.Admit(7, 4, 10));
  // A rate-1 stream still fits at load 7.
  EXPECT_TRUE(admission.Admit(7, 1, 10));
}

TEST(AdmissionDeathTest, InvalidCapAborts) {
  EXPECT_DEATH(AdmissionController(0.0), "SCADDAR_CHECK");
  EXPECT_DEATH(AdmissionController(1.5), "SCADDAR_CHECK");
}

}  // namespace
}  // namespace scaddar
