"""Personal streaming-context modeling: typed context records, an entity
type/entity knowledge-graph store, compilation of both into a rooted concept
DAG, hierarchy-consistent label vectors, and a streaming recognition harness.
"""

from .core import (
    Containment,
    ContextPattern,
    Coordinates,
    FunctionAssignment,
    PersonEntry,
    StreamRecord,
    StreamingContext,
    classify_pattern,
    super_of,
)
from .hierarchy import (
    ConceptNode,
    Hierarchy,
    NodeKind,
    compile_hierarchy,
    node_display_name,
    transitive_reduction,
    validate_hierarchy,
)
from .kg import (
    EG,
    ETG,
    DataPropertyDef,
    Entity,
    EntityType,
    ObjectPropertyDef,
    PropertyValue,
    snapshot_eg,
    validate_eg,
)
from .labels import (
    ConsistencyViolation,
    check_consistency,
    labels_from_eg,
    repair_downward,
    repair_upward,
)
from .learn import OnlinePerceptron, QueryStrategy, decide_query, predict, train_step
from .metrics import evaluate
from .report import Finding, ValidationReport
from .simulate import (
    ScenarioScript,
    Segment,
    WindowSpec,
    aggregate_window,
    run_simulation,
)

__version__ = "0.1.0"
