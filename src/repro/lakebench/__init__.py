"""LakeBench: benchmark datasets for data discovery over data lakes.

The paper fine-tunes on the LakeBench collection (Srinivas et al., 2023):
eight datasets over three task families (union / join / subset), plus four
search benchmarks (Wiki Join, TUS, SANTOS, Eurostat subset). The original
data derives from CKAN, Socrata, Wikidata, the ECB statistical warehouse,
Spider and Eurostat — none of which ship offline — so this package rebuilds
each dataset from a seeded synthetic lake whose *pair-labelling semantics*
match the originals exactly (see README "Scale-down substitutions").

Layout:

- :mod:`repro.lakebench.generators` — the synthetic lake substrate: an entity
  catalogue of semantic domains (with polysemous surface forms), realistic
  column/attribute schemas, and a table factory.
- :mod:`repro.lakebench.base` — dataset containers and Table-I statistics.
- :mod:`repro.lakebench.unions` — TUS-SANTOS, Wiki Union, ECB Union.
- :mod:`repro.lakebench.joins` — Wiki Jaccard, Wiki Containment,
  Spider-OpenData, ECB Join.
- :mod:`repro.lakebench.subsets` — CKAN Subset.
- :mod:`repro.lakebench.search` — Wiki Join / TUS / SANTOS / Eurostat search.
- :mod:`repro.lakebench.pretrain_corpus` — the CKAN/Socrata-like pre-training
  lake (§III-C).
"""

from repro.lakebench.base import SearchBenchmark, SearchQuery, TablePair, TablePairDataset
from repro.lakebench.generators import (
    DOMAIN_SPECS,
    Domain,
    EntityCatalogue,
    LakeConfig,
    TableFactory,
)
from repro.lakebench.unions import make_ecb_union, make_tus_santos, make_wiki_union
from repro.lakebench.joins import (
    make_ecb_join,
    make_spider_opendata,
    make_wiki_containment,
    make_wiki_jaccard,
)
from repro.lakebench.subsets import make_ckan_subset
from repro.lakebench.search import (
    make_eurostat_subset_search,
    make_santos_search,
    make_tus_search,
    make_wiki_join_search,
)
from repro.lakebench.pretrain_corpus import make_pretrain_corpus

#: All eight fine-tuning datasets, keyed by their Table-I names.
DATASET_BUILDERS = {
    "TUS-SANTOS": make_tus_santos,
    "Wiki Union": make_wiki_union,
    "ECB Union": make_ecb_union,
    "Wiki Jaccard": make_wiki_jaccard,
    "Wiki Containment": make_wiki_containment,
    "Spider-OpenData": make_spider_opendata,
    "ECB Join": make_ecb_join,
    "CKAN Subset": make_ckan_subset,
}

__all__ = [
    "SearchBenchmark",
    "SearchQuery",
    "TablePair",
    "TablePairDataset",
    "DOMAIN_SPECS",
    "Domain",
    "EntityCatalogue",
    "LakeConfig",
    "TableFactory",
    "make_tus_santos",
    "make_wiki_union",
    "make_ecb_union",
    "make_wiki_jaccard",
    "make_wiki_containment",
    "make_spider_opendata",
    "make_ecb_join",
    "make_ckan_subset",
    "make_wiki_join_search",
    "make_tus_search",
    "make_santos_search",
    "make_eurostat_subset_search",
    "make_pretrain_corpus",
    "DATASET_BUILDERS",
]
