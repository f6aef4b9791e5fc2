"""Counter-fixture: the tensor layer itself owns the tiled kernel."""


def tile_product(tile, weight):
    return tile @ weight
