"""Client arrays are bitwise the arrays of the per-sample record form.

``build_clients`` once stacked lists of per-page records into arrays; now
the generators and the loader write the arrays directly. The digests below
were taken from the record-based builder: the bundled
``four_clients_fusion_html`` and ``six_clients`` scenarios (together every
modality) and a JSONL path client with a train range, a test range and a
shuffle. Each entry is the dtype, the shape and the first 16 hex digits of
the sha256 of the array's bytes.
"""

import hashlib
import json

import pytest

from fedphish.config import build_clients, bundled_config_path, parse_config

DESK_PREPROC = {"char_len": 64, "word_len": 16, "dom_len": 16, "word_buckets": 257,
                "dom_buckets": 61}


def write_path_config(tmp_path):
    """A desk_pages client reading url, image and html JSONL files, each
    shuffled with its own seed and split into rows [1, 7) and [7, 9)."""
    rows = {
        "url": [{"label": i % 2, "embedding": [((i * 7 + j * 3) % 11) / 4.0 - 1.0 for j in range(16)]}
                for i in range(12)],
        "image": [{"label": (i // 2) % 2, "tokens": [[((i + 2 * t + 5 * j) % 13) / 8.0 for j in range(16)]
                                                   for t in range(3)]} for i in range(10)],
        "html": [{"label": i % 2, "html": f"<html><body><p>word{i} {'verify' if i % 2 else 'garden'}"
                                         f"</p>{'<form></form>' * (i % 3)}</body></html>"}
                 for i in range(9)],
    }
    datasets = []
    for n, (modality, lines) in enumerate(rows.items()):
        path = tmp_path / f"{modality}.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in lines))
        datasets.append({"modality": modality, "path": str(path), "train_range": [1, 7],
                         "test_range": [7, 9], "shuffle_seed": 3 + n})
    cfg = {"name": "paths", "model_profile": "desk_pages", "preproc": DESK_PREPROC,
           "clients": [{"id": "p", "datasets": datasets}]}
    path = tmp_path / "paths.json"
    path.write_text(json.dumps(cfg))
    return path


def array_digests(config_path):
    out = {}
    for client in build_clients(parse_config(config_path)):
        for split in ("train", "val"):
            for kind, arrays in getattr(client, split).items():
                for key, arr in arrays.items():
                    digest = hashlib.sha256(arr.tobytes()).hexdigest()[:16]
                    name = f"{config_path.stem}/{client.client_id}/{split}/{kind}/{key}"
                    out[name] = (arr.dtype.str, arr.shape, digest)
    return out


REFERENCE = {
    'four_clients_fusion_html/fusion_a/train/pair/char': ('<i8', (64, 64), 'c33471baf6c9b017'),
    'four_clients_fusion_html/fusion_a/train/pair/dom': ('<i8', (64, 16), '9c564446e3a4a757'),
    'four_clients_fusion_html/fusion_a/train/pair/word': ('<i8', (64, 16), '8762e19f4d4e4ee1'),
    'four_clients_fusion_html/fusion_a/train/pair/x': ('<f8', (64, 4, 16), '28beb44d8efcbf12'),
    'four_clients_fusion_html/fusion_a/train/pair/y': ('<i8', (64,), '10dbad1425f51980'),
    'four_clients_fusion_html/fusion_a/val/pair/char': ('<i8', (64, 64), 'bd475ba5a0182c66'),
    'four_clients_fusion_html/fusion_a/val/pair/dom': ('<i8', (64, 16), '1f3a8e047ba6926f'),
    'four_clients_fusion_html/fusion_a/val/pair/word': ('<i8', (64, 16), '1d1c4f5d6298074a'),
    'four_clients_fusion_html/fusion_a/val/pair/x': ('<f8', (64, 4, 16), 'a56ba9944d643a95'),
    'four_clients_fusion_html/fusion_a/val/pair/y': ('<i8', (64,), '775b76d52267d5ba'),
    'four_clients_fusion_html/fusion_b/train/pair/char': ('<i8', (64, 64), '890906bec88fbc69'),
    'four_clients_fusion_html/fusion_b/train/pair/dom': ('<i8', (64, 16), 'e3cb3943c243b382'),
    'four_clients_fusion_html/fusion_b/train/pair/word': ('<i8', (64, 16), '092662932354042a'),
    'four_clients_fusion_html/fusion_b/train/pair/x': ('<f8', (64, 4, 16), 'fa170811dd156651'),
    'four_clients_fusion_html/fusion_b/train/pair/y': ('<i8', (64,), 'df83b4dd46693ee5'),
    'four_clients_fusion_html/fusion_b/val/pair/char': ('<i8', (64, 64), 'e63b44c743b08686'),
    'four_clients_fusion_html/fusion_b/val/pair/dom': ('<i8', (64, 16), 'ad72719d3eea615a'),
    'four_clients_fusion_html/fusion_b/val/pair/word': ('<i8', (64, 16), 'dd7fcc0d233f2801'),
    'four_clients_fusion_html/fusion_b/val/pair/x': ('<f8', (64, 4, 16), 'bffba64ed9187b31'),
    'four_clients_fusion_html/fusion_b/val/pair/y': ('<i8', (64,), '0bff18ca2b7e703a'),
    'four_clients_fusion_html/html_a/train/html/char': ('<i8', (32, 64), 'e4208c6345947f0e'),
    'four_clients_fusion_html/html_a/train/html/dom': ('<i8', (32, 16), 'f07fff65679f77f0'),
    'four_clients_fusion_html/html_a/train/html/word': ('<i8', (32, 16), 'e3686fc2a6dc7da8'),
    'four_clients_fusion_html/html_a/train/html/y': ('<i8', (32,), 'b2b4628fa0292940'),
    'four_clients_fusion_html/html_a/val/html/char': ('<i8', (32, 64), '83df45266457e2dd'),
    'four_clients_fusion_html/html_a/val/html/dom': ('<i8', (32, 16), '9b41928541644614'),
    'four_clients_fusion_html/html_a/val/html/word': ('<i8', (32, 16), '109196df7b4658c6'),
    'four_clients_fusion_html/html_a/val/html/y': ('<i8', (32,), '7f01996a3c571245'),
    'four_clients_fusion_html/html_b/train/html/char': ('<i8', (32, 64), '118bc06a78667e02'),
    'four_clients_fusion_html/html_b/train/html/dom': ('<i8', (32, 16), '4799a973a3da13a2'),
    'four_clients_fusion_html/html_b/train/html/word': ('<i8', (32, 16), '390165b93b3adcec'),
    'four_clients_fusion_html/html_b/train/html/y': ('<i8', (32,), 'fae6b4a223ac582b'),
    'four_clients_fusion_html/html_b/val/html/char': ('<i8', (32, 64), '218a15534564d529'),
    'four_clients_fusion_html/html_b/val/html/dom': ('<i8', (32, 16), '861a911d82fcf858'),
    'four_clients_fusion_html/html_b/val/html/word': ('<i8', (32, 16), '544e9246f1a2a9af'),
    'four_clients_fusion_html/html_b/val/html/y': ('<i8', (32,), 'd93c28c5dbbc4939'),
    'six_clients/image_a/train/image/x': ('<f8', (32, 4, 16), 'a2988a565c1bc855'),
    'six_clients/image_a/train/image/y': ('<i8', (32,), '3db3428e4f907b89'),
    'six_clients/image_a/val/image/x': ('<f8', (32, 4, 16), '58d5a5edaba5d832'),
    'six_clients/image_a/val/image/y': ('<i8', (32,), '645a30a1bc1978c4'),
    'six_clients/image_b/train/image/x': ('<f8', (32, 4, 16), '67502723d4bd86ba'),
    'six_clients/image_b/train/image/y': ('<i8', (32,), '37d74b3b7cd9b2c3'),
    'six_clients/image_b/val/image/x': ('<f8', (32, 4, 16), 'efb3191ede4b4fe8'),
    'six_clients/image_b/val/image/y': ('<i8', (32,), 'b45fd06fa272731f'),
    'six_clients/html_a/train/html/char': ('<i8', (32, 64), 'e4208c6345947f0e'),
    'six_clients/html_a/train/html/dom': ('<i8', (32, 16), 'f07fff65679f77f0'),
    'six_clients/html_a/train/html/word': ('<i8', (32, 16), 'e3686fc2a6dc7da8'),
    'six_clients/html_a/train/html/y': ('<i8', (32,), 'b2b4628fa0292940'),
    'six_clients/html_a/val/html/char': ('<i8', (32, 64), '83df45266457e2dd'),
    'six_clients/html_a/val/html/dom': ('<i8', (32, 16), '9b41928541644614'),
    'six_clients/html_a/val/html/word': ('<i8', (32, 16), '109196df7b4658c6'),
    'six_clients/html_a/val/html/y': ('<i8', (32,), '7f01996a3c571245'),
    'six_clients/html_b/train/html/char': ('<i8', (32, 64), '118bc06a78667e02'),
    'six_clients/html_b/train/html/dom': ('<i8', (32, 16), '4799a973a3da13a2'),
    'six_clients/html_b/train/html/word': ('<i8', (32, 16), '390165b93b3adcec'),
    'six_clients/html_b/train/html/y': ('<i8', (32,), 'fae6b4a223ac582b'),
    'six_clients/html_b/val/html/char': ('<i8', (32, 64), '218a15534564d529'),
    'six_clients/html_b/val/html/dom': ('<i8', (32, 16), '861a911d82fcf858'),
    'six_clients/html_b/val/html/word': ('<i8', (32, 16), '544e9246f1a2a9af'),
    'six_clients/html_b/val/html/y': ('<i8', (32,), 'd93c28c5dbbc4939'),
    'six_clients/url_a/train/url/x': ('<f8', (32, 16), '1df0089ce7d3861e'),
    'six_clients/url_a/train/url/y': ('<i8', (32,), '284dfb4b6cf15393'),
    'six_clients/url_a/val/url/x': ('<f8', (32, 16), 'f4c34e35d5e0a6d9'),
    'six_clients/url_a/val/url/y': ('<i8', (32,), 'f2c647f9a17af879'),
    'six_clients/url_b/train/url/x': ('<f8', (32, 16), '7a4fe14f37661122'),
    'six_clients/url_b/train/url/y': ('<i8', (32,), 'a344122b09a9276a'),
    'six_clients/url_b/val/url/x': ('<f8', (32, 16), 'e642e5f0230e7250'),
    'six_clients/url_b/val/url/y': ('<i8', (32,), '404bdfa5fe0cfa74'),
    'paths/p/train/html/char': ('<i8', (6, 64), 'd454d2bfebdf7bee'),
    'paths/p/train/html/dom': ('<i8', (6, 16), 'a7a7b9b15820f3df'),
    'paths/p/train/html/word': ('<i8', (6, 16), 'c88b3a6fa800fb4e'),
    'paths/p/train/html/y': ('<i8', (6,), 'b948680c0ac1d834'),
    'paths/p/train/image/x': ('<f8', (6, 3, 16), 'eba5f765d2b9c020'),
    'paths/p/train/image/y': ('<i8', (6,), '02a646589b206f56'),
    'paths/p/train/url/x': ('<f8', (6, 16), 'fe6766720fb4d1d1'),
    'paths/p/train/url/y': ('<i8', (6,), 'b987ce1bfea37bde'),
    'paths/p/val/html/char': ('<i8', (2, 64), '0407f4b4bfe3697f'),
    'paths/p/val/html/dom': ('<i8', (2, 16), '69e1591fbc54f9ee'),
    'paths/p/val/html/word': ('<i8', (2, 16), '484a06fa0265cea6'),
    'paths/p/val/html/y': ('<i8', (2,), '374708fff7719dd5'),
    'paths/p/val/image/x': ('<f8', (2, 3, 16), 'fc14ac28ea0d1cc8'),
    'paths/p/val/image/y': ('<i8', (2,), '9d34149fbd1fe777'),
    'paths/p/val/url/x': ('<f8', (2, 16), '54231286ce1eb5fb'),
    'paths/p/val/url/y': ('<i8', (2,), '9d34149fbd1fe777'),
}


@pytest.mark.parametrize("config", ["four_clients_fusion_html", "six_clients", "paths"])
def test_client_arrays_match_reference_digests(config, tmp_path):
    path = write_path_config(tmp_path) if config == "paths" else bundled_config_path(config)
    expected = {k: v for k, v in REFERENCE.items() if k.startswith(config + "/")}
    assert array_digests(path) == expected


def test_path_shards_hold_only_their_rows(tmp_path):
    # a shard must not keep the whole file's arrays alive as a view's base
    for client in build_clients(parse_config(write_path_config(tmp_path))):
        for split in (client.train, client.val):
            for arrays in split.values():
                for arr in arrays.values():
                    base = arr
                    while base.base is not None:
                        base = base.base
                    assert base.nbytes == arr.nbytes
