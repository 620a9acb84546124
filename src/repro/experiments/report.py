"""Result persistence and report rendering for benchmark runs."""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.util.tables import SeriesTable


@dataclass
class ExperimentRecord:
    """One regenerated experiment, ready to be written to a report.

    ``metadata`` carries provenance that is not part of the figure data
    itself — campaign runs record worker count, trials executed and cache
    hits there so a report shows how much work a re-run actually cost.
    """

    experiment_id: str
    description: str
    scale: str
    table: SeriesTable
    notes: str = ""
    metadata: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_result_set(
        cls,
        result,
        spec,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "ExperimentRecord":
        """Build a record from a registry run's typed ResultSet.

        Provenance rides along in ``metadata`` so the written JSON
        artefact records how the numbers were produced; explicit
        ``metadata`` entries (campaign counters, sweeps) are merged in
        on top.
        """
        merged: Dict[str, object] = {}
        if result.provenance is not None:
            merged["provenance"] = result.provenance.to_json()
        if result.run_id:
            merged["run_id"] = result.run_id
        merged.update(metadata or {})
        prov = result.provenance
        return cls(
            experiment_id=result.experiment,
            description=spec.description,
            scale=prov.scale if prov is not None else "",
            table=result.to_table(),
            metadata=merged,
        )

    def render(self) -> str:
        header = (
            f"=== {self.experiment_id} — {self.description} "
            f"(scale: {self.scale}) ==="
        )
        parts = [header, self.table.render()]
        if self.notes:
            parts.append(f"notes: {self.notes}")
        if self.metadata:
            detail = ", ".join(f"{k}={v}" for k, v in self.metadata.items())
            parts.append(f"run: {detail}")
        return "\n".join(parts)

    def to_json(self) -> Dict:
        return {
            "experiment_id": self.experiment_id,
            "description": self.description,
            "scale": self.scale,
            "notes": self.notes,
            "metadata": dict(self.metadata),
            "x_label": self.table.x_label,
            "series": [
                {"name": s.name, "xs": s.xs, "ys": s.ys}
                for s in self.table.series
            ],
        }


class ReportWriter:
    """Accumulates experiment records and writes a combined report.

    The CLI's ``--out DIR`` uses this so a figure run leaves both
    human-readable and JSON artefacts under ``DIR``.
    """

    def __init__(self, directory: str) -> None:
        self._dir = directory
        os.makedirs(directory, exist_ok=True)
        self._records: List[ExperimentRecord] = []

    def add(self, record: ExperimentRecord) -> None:
        self._records.append(record)
        base = record.experiment_id.replace(" ", "_").lower()
        with open(os.path.join(self._dir, f"{base}.txt"), "w") as fh:
            fh.write(record.render() + "\n")
        with open(os.path.join(self._dir, f"{base}.json"), "w") as fh:
            json.dump(record.to_json(), fh, indent=2)

    def render_all(self) -> str:
        # report banners are presentation-only and never feed trial state
        # or result digests, so a wall-clock stamp here is legitimate
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")  # repro: noqa-det[D001]
        parts = [f"repro experiment report — {stamp}"]
        parts += [r.render() for r in self._records]
        return "\n\n".join(parts)
