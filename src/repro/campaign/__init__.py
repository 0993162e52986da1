"""Fleet-scale sweep campaigns over the scenario engine.

A campaign multiplies the scenario library into a declarative grid —
scenarios x chip configurations x reconfiguration schemes x feedback
strides x thermal methods — and executes it with the economics of a build
system rather than a benchmark script:

* :mod:`repro.campaign.spec` — the frozen, JSON-round-trippable
  :class:`CampaignSpec`, its deterministic expansion into
  :class:`CampaignJob` cells, and the JSON-exact :class:`JobResult` record;
* :mod:`repro.campaign.cache` — content-addressed results keyed by
  (canonical job spec, fingerprint of the package's code), so warm re-runs
  are pure lookups and a code edit never serves a stale result;
* :mod:`repro.campaign.manifest` — the campaign directory: spec binding,
  append-only completion journal (resume-after-kill), report file;
* :mod:`repro.campaign.executor` — :func:`run_campaign`: journal replay,
  cache probing, evaluation (inline, or sharded over worker processes with
  ``n_jobs``), dry-run forecasting;
* :mod:`repro.campaign.report` — per-axis marginal aggregation.

The CLI surface is ``python -m repro campaign run|list|status|report``.
"""

from ..storage import code_fingerprint
from .cache import ResultCache, job_cache_key
from .executor import CampaignRun, campaign_status, run_campaign
from .report import AxisMarginal, CampaignReport, build_report
from .spec import CampaignJob, CampaignSpec, JobResult, evaluate_job

__all__ = [
    "AxisMarginal",
    "CampaignJob",
    "CampaignReport",
    "CampaignRun",
    "CampaignSpec",
    "JobResult",
    "ResultCache",
    "build_report",
    "campaign_status",
    "code_fingerprint",
    "evaluate_job",
    "job_cache_key",
    "run_campaign",
]
