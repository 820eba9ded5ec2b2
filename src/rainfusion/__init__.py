"""rainfusion: radar + satellite precipitation nowcasting at configurable scale.

The toolkit covers the full chain: gridded rainfall/satellite domain types
and file formats (grids), preprocessing and sequence building (pipeline),
forecast verification (verify, report), a dense 3D conv/pool layer stack
with exact backprop, whose decoder convs upsample (nn), the radar-only and
multimodal U-Net forecasters (models) and a synthetic advected-rain data
generator (synth).
"""

__version__ = "0.1.0"
