"""Per-tenant accounting for the query service.

The service admits requests from many tenants against one engine, so
fairness has to be priced somewhere: each tenant gets a
:class:`TenantAccount` whose *token budget* is denominated in
predicted wall seconds (the same currency the
:class:`~repro.core.planner.CostModel` quotes).  Admission charges the
cost model's prediction up front; completion trues the account up
with the measured share of the (possibly fused) evaluation, so a
tenant whose requests keep riding other tenants' fused calls spends
almost nothing.

All mutation happens on the service's event loop -- the ledger is
deliberately lock-free and must not be shared across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.errors import ValidationError

__all__ = ["TenantAccount", "TenantLedger"]


@dataclass
class TenantAccount:
    """One tenant's admission budget and usage counters.

    Attributes:
        name: the tenant id requests are submitted under.
        budget_seconds: admission token budget in predicted wall
            seconds; ``None`` means unlimited.  A request whose
            prediction does not fit the remaining budget is rejected
            with :class:`~repro.core.errors.AdmissionRejected`.
        charged_seconds: predicted seconds charged at admission,
            net of completion true-ups -- the number the budget is
            compared against.
        measured_seconds: measured wall seconds actually consumed
            (a fused evaluation's time is split evenly across the
            requests it answered).
        admitted: requests accepted by admission control.
        rejected: requests refused (budget, backlog or deadline).
        fused: admitted requests answered by an evaluation shared
            with at least one other request (a reused answer counts).
        quarantined: standing queries owned by this tenant that were
            quarantined after repeated tick failures.
    """

    name: str
    budget_seconds: Optional[float] = None
    charged_seconds: float = 0.0
    measured_seconds: float = 0.0
    admitted: int = 0
    rejected: int = 0
    fused: int = 0
    quarantined: int = 0

    @property
    def remaining_seconds(self) -> Optional[float]:
        """Budget left, or ``None`` for an unlimited tenant."""
        if self.budget_seconds is None:
            return None
        return self.budget_seconds - self.charged_seconds

    def would_exceed(self, predicted_seconds: float) -> bool:
        """Whether charging ``predicted_seconds`` overdraws the budget."""
        remaining = self.remaining_seconds
        return remaining is not None and predicted_seconds > remaining


class TenantLedger:
    """All tenant accounts of one service (event-loop confined).

    Accounts are created on first use with an unlimited budget;
    :meth:`set_budget` installs or changes a tenant's cap at any
    time (existing charges are kept, so shrinking a budget below the
    already-charged total blocks further admissions until true-ups
    free room).
    """

    def __init__(self) -> None:
        self._accounts: Dict[str, TenantAccount] = {}

    def account(self, name: str) -> TenantAccount:
        """The tenant's account, created unlimited on first use."""
        if not name or not isinstance(name, str):
            raise ValidationError(
                f"tenant name must be a non-empty string, got {name!r}"
            )
        found = self._accounts.get(name)
        if found is None:
            found = self._accounts[name] = TenantAccount(name)
        return found

    def set_budget(
        self, name: str, budget_seconds: Optional[float]
    ) -> TenantAccount:
        """Install ``budget_seconds`` (None = unlimited) for a tenant."""
        if budget_seconds is not None and not (
            isinstance(budget_seconds, (int, float))
            and not isinstance(budget_seconds, bool)
            and budget_seconds >= 0
        ):
            raise ValidationError(
                f"budget_seconds must be a non-negative number or "
                f"None, got {budget_seconds!r}"
            )
        account = self.account(name)
        account.budget_seconds = (
            None if budget_seconds is None else float(budget_seconds)
        )
        return account

    def charge(self, name: str, predicted_seconds: float) -> None:
        """Admission: debit the prediction and count the request."""
        account = self.account(name)
        account.charged_seconds += predicted_seconds
        account.admitted += 1

    def settle(
        self,
        name: str,
        predicted_seconds: float,
        measured_seconds: float,
        fused: bool,
    ) -> None:
        """Completion: replace the prediction with the measured share."""
        account = self.account(name)
        account.charged_seconds += measured_seconds - predicted_seconds
        account.measured_seconds += measured_seconds
        if fused:
            account.fused += 1

    def accounts(self) -> Dict[str, TenantAccount]:
        """A snapshot mapping of every known tenant account."""
        return dict(self._accounts)
