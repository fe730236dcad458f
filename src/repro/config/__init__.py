"""Configuration spaces, Spark/cloud parameter catalogues, and encodings."""

from .cloud_params import cloud_space, joint_space
from .constraints import ResourceGrant, grant_resources, repair
from .encoding import OneHotEncoder
from .space import (
    BoolParameter,
    CategoricalParameter,
    Configuration,
    ConfigurationSpace,
    FloatParameter,
    IntParameter,
    Parameter,
)
from .spark_params import SPARK_DEFAULTS, TUNED_BY_PROTOTYPE, spark_core_space, spark_space

__all__ = [
    "Parameter",
    "IntParameter",
    "FloatParameter",
    "BoolParameter",
    "CategoricalParameter",
    "Configuration",
    "ConfigurationSpace",
    "spark_space",
    "spark_core_space",
    "SPARK_DEFAULTS",
    "TUNED_BY_PROTOTYPE",
    "cloud_space",
    "joint_space",
    "grant_resources",
    "repair",
    "ResourceGrant",
    "OneHotEncoder",
]
