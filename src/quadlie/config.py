"""Run configuration: seeds, Monte Carlo budgets, solver caps, output mode.

Resolution order is defaults < QUADLIE_* environment variables < CLI flags;
the effective configuration is echoed into every report so results can be
reproduced byte for byte.

`RunConfig` is the one list of configuration fields. Each integer field is
also the environment variable `QUADLIE_<STEM>` and the CLI flag `--<stem>`,
echoed under its field name; the stem is the field name unless the field's
metadata gives one.
"""

import os
from dataclasses import Field, dataclass, field, fields, replace


@dataclass(frozen=True)
class RunConfig:
    # metadata: "min" is the least allowed value (default 0, None for no
    # bound), "stem" names the env var and flag, "help" is the flag's help
    seed: int = field(
        default=12345,
        metadata={"min": None, "help": "base seed for all randomized steps"},
    )
    mc_trials: int = field(default=40, metadata={"min": 1})
    mc_range: int = field(default=65536, metadata={"min": 1})
    symbolic_max_dim: int = 12
    symbolic_max_formspace_dim: int = field(
        default=8, metadata={"stem": "symbolic_max_formspace"}
    )
    solver_dim_cap: int = 64
    theta_budget: int = 512
    output: str = "text"
    timings: bool = False

    def __post_init__(self):
        for f in INT_FIELDS:
            least = f.metadata.get("min", 0)
            if least is not None and getattr(self, f.name) < least:
                bound = "nonnegative" if least == 0 else f"at least {least}"
                raise ValueError(f"{f.name} must be {bound}")
        if self.output not in ("text", "json"):
            raise ValueError("output must be 'text' or 'json'")

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in INT_FIELDS}

    @classmethod
    def from_environment(cls) -> "RunConfig":
        cfg = cls()
        updates = {}
        for env, name in ENV_FIELDS.items():
            raw = os.environ.get(env)
            if raw is not None:
                try:
                    updates[name] = int(raw)
                except ValueError as exc:
                    raise ValueError(f"{env} must be an integer, got {raw!r}") from exc
        return replace(cfg, **updates) if updates else cfg


def _stem(f: Field) -> str:
    return f.metadata.get("stem", f.name)


def flag_name(f: Field) -> str:
    return "--" + _stem(f).replace("_", "-")


# `f.type is int` needs evaluated annotations: this module must not use
# `from __future__ import annotations`
INT_FIELDS = tuple(f for f in fields(RunConfig) if f.type is int)

ENV_FIELDS = {"QUADLIE_" + _stem(f).upper(): f.name for f in INT_FIELDS}
