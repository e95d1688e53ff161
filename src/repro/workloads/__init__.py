"""Workload generators: graphs, lists, and the paper's example EDBs."""

from repro import _facade

__getattr__, __dir__, __all__ = _facade(
    __name__,
    {
        "graphs": (
            "chain_edb", "cycle_edb", "random_digraph_edb", "complete_edb",
            "tree_edb", "grid_edb",
        ),
        "lists": ("pmem_edb", "pmem_query", "pmem_program"),
        "synthetic": (
            "random_rlc_program", "random_program", "random_edb",
            "wide_dag_program", "wide_dag_edb", "churn_program", "churn_edb",
            "churn_script",
        ),
        "examples": (
            "three_rule_tc_program", "three_rule_tc_query",
            "example_43_program", "example_43_edb",
            "example_43_violating_edbs", "example_44_program",
            "example_44_edb", "example_45_program", "example_45_edb",
            "example_51_program", "example_52_program", "example_71_program",
            "same_generation_program", "same_generation_edb",
        ),
    },
)
