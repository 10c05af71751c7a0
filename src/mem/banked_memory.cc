#include "mem/banked_memory.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace famsim {

BankedMemory::BankedMemory(Simulation& sim, const std::string& name,
                           const BankedMemoryParams& params)
    : Component(sim, name),
      params_(params),
      bankFree_(params.banks, 0),
      reads_(statCounter("reads", "read accesses serviced")),
      writes_(statCounter("writes", "write accesses serviced")),
      atReads_(statCounter("at_requests",
                           "address-translation accesses serviced")),
      queued_(statCounter("queued",
                          "accesses that waited for an outstanding slot")),
      latency_(statHistogram("latency_ns", "access latency (ns)",
                             /*bucket_width=*/25, /*buckets=*/32))
{
    FAMSIM_ASSERT(params.banks > 0, "memory must have at least one bank");
    obsService_ = obsHistogram(
        "obs_service_ns",
        "ns from bank dispatch to completion: bank wait + device "
        "latency (observability)", 25, 32);
}

void
BankedMemory::access(const PktPtr& pkt, std::uint64_t addr)
{
    FAMSIM_ASSERT(pkt, "null packet");
    if (params_.maxOutstanding != 0 &&
        inFlight_ >= params_.maxOutstanding) {
        ++queued_;
        waitQueue_.push_back(Waiting{pkt, addr});
        return;
    }
    start(pkt, addr);
}

void
BankedMemory::start(const PktPtr& pkt, std::uint64_t addr)
{
    ++inFlight_;
    unsigned bank =
        static_cast<unsigned>((addr / kBlockSize) % params_.banks);
    Tick now = sim_.curTick();
    Tick begin = std::max(now, bankFree_[bank]);
    Tick service =
        pkt->isWrite() ? params_.writeLatency : params_.readLatency;
    Tick done = begin + params_.frontendLatency + service;
    bankFree_[bank] = done;

    if (pkt->isWrite())
        ++writes_;
    else
        ++reads_;
    if (pkt->isTranslation())
        ++atReads_;
    latency_.sample((done - now) / kNanosecond);
    if (obsService_)
        obsService_->sample((done - now) / kNanosecond);

    sim_.events().schedule(done, [this, pkt] { finish(pkt); });
}

void
BankedMemory::finish(const PktPtr& pkt)
{
    FAMSIM_ASSERT(inFlight_ > 0, "finish with no in-flight access");
    --inFlight_;
    if (!waitQueue_.empty() &&
        (params_.maxOutstanding == 0 ||
         inFlight_ < params_.maxOutstanding)) {
        Waiting w = std::move(waitQueue_.front());
        waitQueue_.pop_front();
        start(w.pkt, w.addr);
    }
    pkt->complete();
}

} // namespace famsim
