// A device with a polling/thread lifecycle (ch_mad and the baseline native
// devices implement this; ch_self and smp_plug need no threads).
#pragma once

#include "marcel/executor.hpp"
#include "mpi/adi.hpp"

namespace madmpi::core {

class ManagedDevice : public mpi::Device {
 public:
  /// Bring the device up; its helper tasks run on `executor`, which the
  /// owner drains before shutdown().
  virtual void start(marcel::Executor& executor) = 0;
  virtual void shutdown() {}
};

}  // namespace madmpi::core
