"""Predictive campaigns: reproduce paper figures from a fraction of the grid.

The subsystem closes the loop from stored results back into what gets
simulated next:

* :class:`~repro.predict.features.Featurizer` — deterministic work-item
  -> vector mapping (scheme one-hots, workload-profile parameters,
  fault-map geometry summaries);
* :class:`~repro.predict.surrogate.Surrogate` — pure-NumPy seeded
  bootstrap ridge + k-NN ensemble with per-point uncertainty;
* :mod:`~repro.predict.acquisition` — batch proposal strategies
  (``uncertainty``, ``figure-error``, ``random``) emitting ordinary
  :class:`~repro.campaign.spec.CampaignSpec` s;
* :class:`~repro.predict.loop.ActiveCampaign` — the propose -> plan ->
  run -> retrain -> converge driver over any Session-surface runner
  (in-process, pool, or ``Session.connect`` remote), streaming
  ``BatchProposed`` / ``SurrogateFit`` / ``Converged`` events through
  the campaign wire layer.

CLI: ``python -m repro.experiments predict fig8 --budget 0.4 ...``.
"""

from repro.predict.acquisition import (
    STRATEGIES,
    CellView,
    Proposal,
    proposal_specs,
    propose_batch,
)
from repro.predict.features import Featurizer
from repro.predict.loop import (
    ActiveCampaign,
    PredictReport,
    PredictSettings,
    replay_report,
)
from repro.predict.surrogate import Surrogate

__all__ = [
    "ActiveCampaign",
    "CellView",
    "Featurizer",
    "PredictReport",
    "PredictSettings",
    "Proposal",
    "STRATEGIES",
    "Surrogate",
    "proposal_specs",
    "propose_batch",
    "replay_report",
]
