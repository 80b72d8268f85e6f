// The inproc backend's endpoints: both ends of the in-process command and
// report mailboxes, and direct reads of the worker DeviceStates.
// run_hadfl_rt (rt/runner.cpp) wires them to one thread per device.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/round_logic.hpp"
#include "rt/coordinator.hpp"
#include "rt/failure_detector.hpp"
#include "rt/mailbox.hpp"
#include "rt/protocol.hpp"
#include "rt/worker.hpp"

namespace hadfl::rt {

/// Worker endpoints on the inproc backend: a dedicated command mailbox, the
/// shared report mailbox, and direct beats into the shared FailureDetector.
class InprocWorkerIo final : public WorkerIo {
 public:
  InprocWorkerIo(DeviceId id, Mailbox<Command>& inbox,
                 Mailbox<Report>& reports, FailureDetector& detector)
      : id_(id), inbox_(inbox), reports_(reports), detector_(detector) {}

  std::optional<Command> next_command(double timeout_s) override {
    return inbox_.pop(timeout_s);
  }
  bool command_channel_closed() override { return inbox_.closed(); }
  void send_report(Report report) override {
    reports_.push(std::move(report));
  }
  void beat() override { detector_.beat(id_); }

 private:
  DeviceId id_;
  Mailbox<Command>& inbox_;
  Mailbox<Report>& reports_;
  FailureDetector& detector_;
};

class InprocCoordinatorIo final : public CoordinatorIo {
 public:
  InprocCoordinatorIo(std::vector<std::unique_ptr<Mailbox<Command>>>& inboxes,
                      Mailbox<Report>& reports)
      : inboxes_(inboxes), reports_(reports) {}

  bool post(DeviceId d, Command command) override {
    return inboxes_[d]->push(std::move(command));
  }
  std::optional<Report> poll_report(double timeout_s) override {
    return reports_.pop(timeout_s);
  }
  void close_channel(DeviceId d) override { inboxes_[d]->close(); }
  void cancel_collective(const std::vector<DeviceId>&,
                         std::int64_t) override {
    // The Command's shared cancel flag is the same atomic the workers poll
    // in-process; raising it (which the coordinator already did) is enough.
  }

 private:
  std::vector<std::unique_ptr<Mailbox<Command>>>& inboxes_;
  Mailbox<Report>& reports_;
};

/// Direct reads of the worker DeviceStates. Only safe for devices the
/// coordinator knows are idle-and-live — the report mailbox handoff is the
/// happens-before edge (see runner.hpp).
class InprocDeviceOracle final : public DeviceOracle {
 public:
  explicit InprocDeviceOracle(std::vector<core::DeviceState>& devices)
      : devices_(devices) {}

  std::vector<float> mean_state(const std::vector<DeviceId>& ids) override {
    return core::mean_state_of(devices_, ids);
  }

 private:
  std::vector<core::DeviceState>& devices_;
};

}  // namespace hadfl::rt
