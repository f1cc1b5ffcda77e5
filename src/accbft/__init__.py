"""Accountable BFT consensus under mixed deceitful/benign faults.

Protocol stack (reliable broadcast, binary consensus, multi-value consensus
with runtime fraud exclusion, membership change, fork-merging ledger), a
deterministic discrete-event network to run it in, closed-form bounds, and a
scenario harness.  Everything is seed-reproducible.
"""

from .analysis import (
    BLOCKDEPTH_REFERENCE,
    ZeroLossParams,
    alpha_confirm_threshold,
    as_fraction,
    conservative_branches,
    deposit_flux,
    frontier,
    max_branches,
    min_blockdepth,
)
from .committee import (
    Committee,
    FaultProfile,
    consensus_tolerated,
    default_h0,
    threshold_tolerated,
    update_committee,
)
from .crypto import Kind, KeyRegistry, Pof, SignedMessage, verify_pof
from .ledger import (
    Block,
    DepositPolicy,
    LedgerState,
    Transaction,
    TxInput,
    TxOutput,
    decode_block,
    make_genesis,
    sign_tx,
    tx_valid,
)
from .membership import AsmrProcess, fraud_trigger_threshold, h_prime_preset
from .scenarios import (
    Scenario,
    ScenarioError,
    agreement_scenario,
    canonical_record,
    clean_scenario,
    complexity_scenario,
    fork_scenario,
    llb_scenario,
    load_scenario,
    run_scenario,
    spam_scenario,
    tolerated_profiles,
)
from .simnet import (
    TICKS_PER_MS,
    GammaDelay,
    NetConfig,
    TraceDelay,
    UniformDelay,
    VirtualNet,
)

__version__ = "0.1.0"

__all__ = [
    "BLOCKDEPTH_REFERENCE",
    "ZeroLossParams",
    "alpha_confirm_threshold",
    "as_fraction",
    "conservative_branches",
    "deposit_flux",
    "frontier",
    "max_branches",
    "min_blockdepth",
    "Committee",
    "FaultProfile",
    "consensus_tolerated",
    "default_h0",
    "threshold_tolerated",
    "update_committee",
    "Kind",
    "KeyRegistry",
    "Pof",
    "SignedMessage",
    "verify_pof",
    "Block",
    "DepositPolicy",
    "LedgerState",
    "Transaction",
    "TxInput",
    "TxOutput",
    "decode_block",
    "make_genesis",
    "sign_tx",
    "tx_valid",
    "AsmrProcess",
    "fraud_trigger_threshold",
    "h_prime_preset",
    "Scenario",
    "ScenarioError",
    "agreement_scenario",
    "canonical_record",
    "clean_scenario",
    "complexity_scenario",
    "fork_scenario",
    "llb_scenario",
    "load_scenario",
    "run_scenario",
    "spam_scenario",
    "tolerated_profiles",
    "TICKS_PER_MS",
    "GammaDelay",
    "NetConfig",
    "TraceDelay",
    "UniformDelay",
    "VirtualNet",
]
