#include "runtime/transfer_service.hpp"

#include <utility>

#include "util/check.hpp"

namespace xres {

PfsDeviceTransferService::PfsDeviceTransferService(PfsDevice& device,
                                                   Bandwidth fallback_rate)
    : device_{device}, fallback_bps_{fallback_rate.to_bytes_per_second()} {
  XRES_CHECK(fallback_bps_ > 0.0, "fallback transfer rate must be positive");
}

PfsDeviceTransferService::TransferHandle PfsDeviceTransferService::begin(
    const TransferRequest& request, CompletionCallback on_complete) {
  XRES_CHECK(request.nominal >= Duration::zero(),
             "transfer duration must be non-negative");
  DataSize bytes = request.bytes;
  Bandwidth cap = request.rate_cap;
  if (!request.has_topology_info()) {
    // Flat-model plan: reconstruct bytes so a lone transfer at the
    // fallback rate takes exactly its nominal time.
    bytes = DataSize::bytes(request.nominal.to_seconds() * fallback_bps_);
    cap = Bandwidth::bytes_per_second(fallback_bps_);
  }
  return device_.begin_transfer(bytes, cap, request.nominal, std::move(on_complete));
}

}  // namespace xres
