<?php
function greet($name) {
    return "Hello " . htmlentities($name);
}
