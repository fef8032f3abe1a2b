#include "qif/exec/parallel_runner.hpp"

#include <utility>

namespace qif::exec {

core::CampaignRunFn campaign_runner(int jobs, core::CaseSink sink) {
  return core::CampaignPool{jobs, std::move(sink)};
}

}  // namespace qif::exec
