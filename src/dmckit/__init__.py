"""Desk-scale exact toolkit for image sizes, source partitioning, and
converse bounds over discrete memoryless channels."""

__version__ = "0.1.0"

from .core import (Alphabet, Channel, Sequence, SequenceDist, SequenceSet,
                   bsc, entropy, identity_channel, mutual_information,
                   output_dist)
from .errors import (CapacityError, ConditioningError, DimensionMismatchError,
                     DomainError, InvariantError, PreconditionError,
                     ToolkitError, ValidationError)
from .fano import (Code, Decoder, FanoReport, MessageSpace, avg_error,
                   build_decoding_sets, classic_fano, deterministic_code,
                   max_error, ml_decoder, sphere_packing_check,
                   strong_fano_avg, strong_fano_max)
from .images import (ImageBracket, QuasiImageResult, hamming_blowup, min_image,
                     min_image_bracket, min_image_exact, min_quasi_image,
                     singleton_image_size)
from .partitioner import (EqualImagePartition, UniformizingPartition,
                          build_equal_image_partition,
                          build_image_entropy_partition,
                          build_uniformizing_partition,
                          entropy_perturbation_bound, extract_equal_cell,
                          extract_main, refine_quasi_to_image)
from .reports import BoundItem, BoundReport
from .spectrum import (PartitioningIndex, SpectrumPartition,
                       build_spectrum_partition, product_index, restrict_index,
                       uniformity, verify_bin_conditional_uniformity,
                       verify_bin_size_bounds, verify_uniform_entropy_bounds)
from .wiretap import (SecrecyBoundResult, WiretapInstance, WiretapReport,
                      evaluate_wtc_code, secrecy_bound_single_letter,
                      wtc_converse_chain)
