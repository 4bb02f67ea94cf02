<?php
// A recursive function called from its own body (pass 2) and from the
// top level (pass 3): one flow into system() per call site, and the
// corrector sanitizes both calls.
function fn932($p0) {
    while ($_REQUEST) {
        fn932($_COOKIE['name']);
    }
    system($p0);
}
fn932($_COOKIE['name']);
