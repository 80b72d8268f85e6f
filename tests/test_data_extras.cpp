// Tests for the step-decay learning-rate schedule.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "nn/optimizer.hpp"

namespace hadfl {
namespace {

TEST(StepDecay, DecaysAfterWarmup) {
  nn::StepDecaySchedule sched(nn::WarmupSchedule(0.1, 0.01, 2),
                              /*step_epochs=*/3, /*decay=*/0.5);
  EXPECT_DOUBLE_EQ(sched.lr_at_epoch(0), 0.01);  // warm-up
  EXPECT_DOUBLE_EQ(sched.lr_at_epoch(2), 0.1);   // first main epoch
  EXPECT_DOUBLE_EQ(sched.lr_at_epoch(4), 0.1);
  EXPECT_DOUBLE_EQ(sched.lr_at_epoch(5), 0.05);  // first decay
  EXPECT_DOUBLE_EQ(sched.lr_at_epoch(8), 0.025);
}

TEST(StepDecay, Validation) {
  EXPECT_THROW(nn::StepDecaySchedule(nn::WarmupSchedule(0.1, 0.01, 1), 0, 0.5),
               InvalidArgument);
  EXPECT_THROW(
      nn::StepDecaySchedule(nn::WarmupSchedule(0.1, 0.01, 1), 3, 1.5),
      InvalidArgument);
}

}  // namespace
}  // namespace hadfl
