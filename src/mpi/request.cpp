#include "mpi/request.hpp"

#include <thread>
#include <vector>

#include "marcel/engine.hpp"

namespace madmpi::mpi {

// The multi-request waits poll with test(): completion is signalled
// per request, so a combined blocking wait would need a shared condition; polling with a cooperative yield keeps the
// implementation simple and, with virtual time, costs nothing in measured
// results. Under the sharded engine the yield reschedules the fiber so
// shard siblings (including the peer that will complete the request) keep
// making progress. Completed requests are invalidated (set to a null
// handle), mirroring how the MPI calls set MPI_REQUEST_NULL.

std::size_t Request::wait_any(std::span<Request> requests,
                              MpiStatus* status) {
  for (;;) {
    const std::size_t index = test_any(requests, status);
    if (index != npos) return index;
    bool any_valid = false;
    for (const auto& request : requests) {
      if (request.valid()) {
        any_valid = true;
        break;
      }
    }
    MADMPI_CHECK_MSG(any_valid, "wait_any on all-null requests");
    marcel::cooperative_yield();
  }
}

std::size_t Request::test_any(std::span<Request> requests,
                              MpiStatus* status) {
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (!requests[i].valid()) continue;
    if (requests[i].test(status)) {
      requests[i] = Request();  // MPI_REQUEST_NULL
      return i;
    }
  }
  return npos;
}

bool Request::test_all(std::span<Request> requests) {
  for (auto& request : requests) {
    if (request.valid() && !request.state()->completed()) return false;
  }
  for (auto& request : requests) {
    if (request.valid()) {
      request.test(nullptr);
      request = Request();
    }
  }
  return true;
}

std::vector<std::size_t> Request::wait_some(std::span<Request> requests) {
  std::vector<std::size_t> done;
  for (;;) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (!requests[i].valid()) continue;
      if (requests[i].test(nullptr)) {
        requests[i] = Request();
        done.push_back(i);
      }
    }
    if (!done.empty()) return done;
    bool any_valid = false;
    for (const auto& request : requests) {
      if (request.valid()) {
        any_valid = true;
        break;
      }
    }
    MADMPI_CHECK_MSG(any_valid, "wait_some on all-null requests");
    marcel::cooperative_yield();
  }
}

}  // namespace madmpi::mpi
