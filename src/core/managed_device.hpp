// A device with a poller lifecycle (ch_mad and the baseline native devices
// implement this; ch_self and smp_plug need no pollers).
#pragma once

#include "marcel/executor.hpp"
#include "mpi/adi.hpp"

namespace madmpi::core {

class ManagedDevice : public mpi::Device {
 public:
  /// Bring the device up; its pollers run as loops on `executor`.
  /// shutdown() waits for them to return.
  virtual void start(marcel::Executor& executor) = 0;
  virtual void shutdown() {}
};

}  // namespace madmpi::core
