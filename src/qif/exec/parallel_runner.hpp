// Parallel campaign execution.
//
// The scheduler itself is core::run_campaigns(): one task graph over every
// baseline and case of a list of campaigns, run on a pool of `jobs`
// workers with output bit-identical at every job count.  This header keeps
// the entry point that front ends pass a --jobs value through.
#pragma once

#include "qif/core/campaign.hpp"
#include "qif/core/datasets.hpp"

namespace qif::exec {

/// A DatasetOptions::runner hook: campaigns launched through it run on the
/// task graph with `jobs` workers (values < 1 are clamped to 1, which runs
/// inline on the calling thread), streaming every case through the
/// optional ordered `sink`.  It wraps a core::CampaignPool, so the dataset
/// builders hand it a whole family's campaigns in one call.
[[nodiscard]] core::CampaignRunFn campaign_runner(int jobs, core::CaseSink sink = {});

}  // namespace qif::exec
