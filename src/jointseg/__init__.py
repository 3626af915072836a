"""Joint instance and semantic segmentation of 3D point clouds."""

from .autodiff import Parameter, Tensor, backward, no_grad
from .backbone import Backbone, DecoderFeatures, LayerSpec
from .config import RunConfig, load_config
from .data import Block, Scene, SyntheticSceneSpec, generate_scene, load_scene, save_scene, split_into_blocks
from .fusion import FeatureFusion
from .inference import BlockPrediction, MeanShiftConfig, SceneSegmentation, block_merging, mean_shift, predict_block, segment_scene
from .joint import JointSegmentationHead
from .losses import InstanceGrouping, LossConfig, discriminative_loss, total_loss
from .metrics import MetricsReport, RegionSet, coverage, evaluate, precision_recall, semantic_scores
from .network import SegmentationNetwork
from .train import grad_check, train

__version__ = "0.1.0"
