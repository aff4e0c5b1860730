"""Item catalogs and popularity models (paper Section VI-A).

The evaluation stores ``m`` items with randomly-generated identifiers in
the overlay and queries them by zipf-distributed popularity. Two ranking
modes exist:

* **identical** — all nodes agree on which item is the most popular
  (one ranking; the mode shown in the Pastry plots), and
* **per-node** — several distinct rankings with the same zipf parameter;
  each node is assigned one at random (five lists in the Chord plots),
  modelling node-local popularity skews.

:class:`PopularityModel` bundles the catalog, distribution and rankings,
and can aggregate item weights into per-destination-node frequencies —
the converged access-frequency table a node would observe after a long
query history.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.util.errors import ConfigurationError
from repro.util.ids import IdSpace
from repro.util.validation import require_positive_int
from repro.workload.zipf import ZipfDistribution

__all__ = ["ItemCatalog", "PopularityModel"]


class ItemCatalog:
    """A set of items with distinct random identifiers in the id space."""

    def __init__(self, space: IdSpace, num_items: int, seed: int = 0) -> None:
        require_positive_int(num_items, "num_items")
        if num_items > space.size:
            raise ConfigurationError(
                f"cannot place {num_items} distinct items in a {space.bits}-bit space"
            )
        self.space = space
        rng = random.Random(seed)
        self.item_ids: list[int] = space.sample(rng, num_items)

    def __len__(self) -> int:
        return len(self.item_ids)

    def __iter__(self):
        return iter(self.item_ids)


class PopularityModel:
    """Zipf popularities over an item catalog, with one or more rankings.

    Parameters
    ----------
    catalog:
        The items being queried.
    alpha:
        Zipf parameter shared by every ranking.
    num_rankings:
        1 for the identical mode; 5 reproduces the paper's per-node Chord
        setup.
    seed:
        Drives the ranking permutations and node-to-ranking assignment.
    """

    def __init__(
        self,
        catalog: ItemCatalog,
        alpha: float,
        num_rankings: int = 1,
        seed: int = 0,
    ) -> None:
        require_positive_int(num_rankings, "num_rankings")
        self.catalog = catalog
        self.distribution = ZipfDistribution(alpha, len(catalog))
        self._rng = random.Random(seed)
        base = list(catalog.item_ids)
        self.rankings: list[list[int]] = []
        for index in range(num_rankings):
            ranking = list(base)
            if index:  # ranking 0 keeps catalog order: the "identical" list
                self._rng.shuffle(ranking)
            self.rankings.append(ranking)

    @property
    def num_rankings(self) -> int:
        return len(self.rankings)

    def assign_rankings(self, node_ids: Sequence[int]) -> dict[int, int]:
        """Assign each node one ranking uniformly at random (paper VI-A)."""
        return {node_id: self._rng.randrange(self.num_rankings) for node_id in node_ids}

    def sample_item(self, ranking_index: int, rng: random.Random) -> int:
        """Draw an item id according to the given ranking's zipf weights."""
        rank = self.distribution.sample_rank(rng)
        return self.rankings[ranking_index][rank - 1]

    def item_weights(self, ranking_index: int) -> dict[int, float]:
        """``{item_id: probability}`` under one ranking."""
        ranking = self.rankings[ranking_index]
        weights = self.distribution.weights()
        return {item: weight for item, weight in zip(ranking, weights)}

    def node_frequencies(
        self,
        ranking_index: int,
        responsible: Callable[[int], int],
        exclude: int | None = None,
    ) -> dict[int, float]:
        """Aggregate item probabilities by their responsible node.

        This is the long-run destination distribution a node assigned this
        ranking would observe; ``exclude`` drops the querying node itself
        (local items need no pointer).
        """
        frequencies: dict[int, float] = {}
        for item, weight in self.item_weights(ranking_index).items():
            destination = responsible(item)
            if destination == exclude:
                continue
            frequencies[destination] = frequencies.get(destination, 0.0) + weight
        return frequencies
